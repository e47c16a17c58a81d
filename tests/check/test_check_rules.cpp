// Per-rule tests for the ecohmem-lint invariant checker: every built-in
// rule id has at least one test feeding it a violating artifact (and
// asserting that exact id fires) plus a clean counterpart.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/bom/format.hpp"
#include "ecohmem/check/rule.hpp"

namespace ecohmem::check {
namespace {

using trace::AllocEvent;
using trace::AllocKind;
using trace::FreeEvent;
using trace::SampleEvent;
using trace::StackId;

/// A well-formed two-site trace: disjoint allocations, attributed
/// samples, everything freed.
trace::TraceBundle clean_bundle() {
  trace::TraceBundle b;
  b.modules.add_module("app.x", 1 << 20);
  trace::Trace& t = b.trace;
  const StackId site_a = t.stacks.intern(bom::CallStack{{{0, 0x100}}});
  const StackId site_b = t.stacks.intern(bom::CallStack{{{0, 0x200}}});
  const std::uint32_t fn = t.functions.intern("kernel");
  t.events.emplace_back(AllocEvent{100, 1, 0x1000, 4096, site_a, AllocKind::kMalloc});
  t.events.emplace_back(AllocEvent{200, 2, 0x10000, 8192, site_b, AllocKind::kMalloc});
  t.events.emplace_back(SampleEvent{500, 0x1010, 10.0, 150.0, false, fn});
  t.events.emplace_back(SampleEvent{600, 0x10020, 4.0, 0.0, true, fn});
  t.events.emplace_back(FreeEvent{1000, 1});
  t.events.emplace_back(FreeEvent{1100, 2});
  return b;
}

RunResult run(const CheckContext& ctx, const CheckOptions& options = {}) {
  return RuleRegistry::builtin().run_all(ctx, options);
}

std::vector<Diagnostic> diags_with(const RunResult& result, std::string_view id) {
  std::vector<Diagnostic> out;
  for (const auto& d : result.diagnostics) {
    if (d.rule == id) out.push_back(d);
  }
  return out;
}

void expect_fires(const RunResult& result, std::string_view id,
                  Severity severity = Severity::kError) {
  const auto found = diags_with(result, id);
  ASSERT_FALSE(found.empty()) << "rule " << id << " did not fire";
  EXPECT_EQ(found.front().severity, severity) << found.front().message;
}

void expect_silent(const RunResult& result, std::string_view id) {
  const auto found = diags_with(result, id);
  EXPECT_TRUE(found.empty()) << "rule " << id << " fired: " << found.front().message;
}

// ------------------------------------------------------------ registry

TEST(Registry, BuiltinHasUniqueIdsAndFind) {
  const RuleRegistry registry = RuleRegistry::builtin();
  EXPECT_GE(registry.rules().size(), 17u);
  std::set<std::string_view> ids;
  for (const auto& rule : registry.rules()) {
    EXPECT_TRUE(ids.insert(rule->id()).second) << "duplicate rule id " << rule->id();
    EXPECT_FALSE(rule->description().empty());
  }
  EXPECT_NE(registry.find("report-capacity"), nullptr);
  EXPECT_EQ(registry.find("no-such-rule"), nullptr);
}

TEST(Registry, CleanBundleProducesNoFindings) {
  const auto b = clean_bundle();
  const auto analysis = analyzer::analyze(b.trace);
  ASSERT_TRUE(analysis.has_value()) << analysis.error();
  CheckContext ctx;
  ctx.bundle = &b;
  ctx.analysis = &*analysis;
  const auto result = run(ctx);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.diagnostics.empty()) << result.diagnostics.front().message;
  EXPECT_GE(result.rules_run.size(), 9u);
}

TEST(Registry, DisabledRuleIsSkipped) {
  auto b = clean_bundle();
  b.trace.events.pop_back();  // leak object 2
  CheckContext ctx;
  ctx.bundle = &b;
  CheckOptions options;
  options.disabled_rules = {"trace-leaked-objects"};
  const auto result = run(ctx, options);
  expect_silent(result, "trace-leaked-objects");
  EXPECT_NE(std::find(result.rules_skipped.begin(), result.rules_skipped.end(),
                      "trace-leaked-objects"),
            result.rules_skipped.end());
}

TEST(Registry, MaxPerRuleTruncatesWithSummary) {
  auto b = clean_bundle();
  for (int i = 0; i < 10; ++i) b.trace.events.emplace_back(FreeEvent{2000, 1});
  CheckContext ctx;
  ctx.bundle = &b;
  CheckOptions options;
  options.max_per_rule = 3;
  const auto result = run(ctx, options);
  const auto found = diags_with(result, "trace-alloc-pairing");
  ASSERT_EQ(found.size(), 4u);  // 3 kept + 1 suppression note
  EXPECT_NE(found.back().message.find("suppressed"), std::string::npos);
}

// ------------------------------------------------------------ trace rules

TEST(TraceRules, MonotonicTime) {
  auto b = clean_bundle();
  b.trace.events.emplace_back(SampleEvent{50, 0x1010, 1.0, 0.0, false, 0});  // t=50 after t=1100
  CheckContext ctx;
  ctx.bundle = &b;
  expect_fires(run(ctx), "trace-monotonic-time");

  const auto clean = clean_bundle();
  CheckContext clean_ctx;
  clean_ctx.bundle = &clean;
  expect_silent(run(clean_ctx), "trace-monotonic-time");
}

TEST(TraceRules, AllocPairingDoubleFree) {
  auto b = clean_bundle();
  b.trace.events.emplace_back(FreeEvent{1200, 1});  // object 1 already freed
  CheckContext ctx;
  ctx.bundle = &b;
  const auto result = run(ctx);
  expect_fires(result, "trace-alloc-pairing");
  EXPECT_NE(diags_with(result, "trace-alloc-pairing").front().message.find("double free"),
            std::string::npos);
}

TEST(TraceRules, AllocPairingFreeOfUnknownId) {
  auto b = clean_bundle();
  b.trace.events.emplace_back(FreeEvent{1200, 777});
  CheckContext ctx;
  ctx.bundle = &b;
  const auto result = run(ctx);
  expect_fires(result, "trace-alloc-pairing");
  EXPECT_NE(diags_with(result, "trace-alloc-pairing").front().message.find("unknown"),
            std::string::npos);
}

TEST(TraceRules, AllocPairingReallocatedWhileLive) {
  auto b = clean_bundle();
  // Object id 3 allocated twice with no intervening free.
  b.trace.events.emplace_back(AllocEvent{1200, 3, 0x20000, 64, 0, AllocKind::kMalloc});
  b.trace.events.emplace_back(AllocEvent{1300, 3, 0x30000, 64, 0, AllocKind::kMalloc});
  CheckContext ctx;
  ctx.bundle = &b;
  expect_fires(run(ctx), "trace-alloc-pairing");
}

TEST(TraceRules, OverlappingLiveRanges) {
  auto b = clean_bundle();
  // Object 4 lands inside object 3's still-live [0x20000, +4096) range.
  b.trace.events.emplace_back(AllocEvent{1200, 3, 0x20000, 4096, 0, AllocKind::kMalloc});
  b.trace.events.emplace_back(AllocEvent{1300, 4, 0x20800, 64, 0, AllocKind::kMalloc});
  CheckContext ctx;
  ctx.bundle = &b;
  expect_fires(run(ctx), "trace-overlapping-live");

  const auto clean = clean_bundle();
  CheckContext clean_ctx;
  clean_ctx.bundle = &clean;
  expect_silent(run(clean_ctx), "trace-overlapping-live");
}

TEST(TraceRules, LeakedObjectsWarns) {
  auto b = clean_bundle();
  b.trace.events.pop_back();  // drop the free of object 2
  CheckContext ctx;
  ctx.bundle = &b;
  expect_fires(run(ctx), "trace-leaked-objects", Severity::kWarning);
}

TEST(TraceRules, StackIdOutOfRange) {
  auto b = clean_bundle();
  b.trace.events.emplace_back(AllocEvent{1200, 3, 0x20000, 64, StackId{99}, AllocKind::kMalloc});
  CheckContext ctx;
  ctx.bundle = &b;
  expect_fires(run(ctx), "trace-stack-ids");
}

TEST(TraceRules, FunctionIdOutOfRangeWarns) {
  auto b = clean_bundle();
  b.trace.events.emplace_back(SampleEvent{1200, 0x90000, 1.0, 0.0, false, 42});
  CheckContext ctx;
  ctx.bundle = &b;
  expect_fires(run(ctx), "trace-stack-ids", Severity::kWarning);
}

TEST(TraceRules, FrameBeyondModuleText) {
  auto b = clean_bundle();
  // Offset 0x200000 lies beyond app.x's 1 MiB text segment.
  const StackId bad = b.trace.stacks.intern(bom::CallStack{{{0, 0x200000}}});
  b.trace.events.emplace_back(AllocEvent{1200, 3, 0x20000, 64, bad, AllocKind::kMalloc});
  b.trace.events.emplace_back(FreeEvent{1300, 3});
  CheckContext ctx;
  ctx.bundle = &b;
  expect_fires(run(ctx), "bom-frame-bounds");
}

TEST(TraceRules, FrameUnknownModule) {
  auto b = clean_bundle();
  const StackId bad = b.trace.stacks.intern(bom::CallStack{{{7, 0x10}}});
  b.trace.events.emplace_back(AllocEvent{1200, 3, 0x20000, 64, bad, AllocKind::kMalloc});
  b.trace.events.emplace_back(FreeEvent{1300, 3});
  CheckContext ctx;
  ctx.bundle = &b;
  expect_fires(run(ctx), "bom-frame-bounds");
}

// ------------------------------------------------------------ sites rules

TEST(SitesRules, MissesExceedTrace) {
  const auto b = clean_bundle();
  auto analysis = analyzer::analyze(b.trace);
  ASSERT_TRUE(analysis.has_value());
  analysis->sites[0].load_misses += 1000.0;  // invent sample mass
  CheckContext ctx;
  ctx.bundle = &b;
  ctx.analysis = &*analysis;
  expect_fires(run(ctx), "sites-misses-exceed-trace");
}

TEST(SitesRules, ZeroFootprintWithMisses) {
  SiteCsv csv;
  SiteCsvRow row;
  row.line = 2;
  row.callstack = "app.x!0x100";
  row.alloc_count = 1;
  row.max_size = 0;
  row.load_misses = 5.0;
  csv.rows.push_back(row);
  CheckContext ctx;
  ctx.sites = &csv;
  expect_fires(run(ctx), "sites-zero-footprint");
}

TEST(SitesRules, ZeroFootprintAllocsOnlyWarns) {
  SiteCsv csv;
  SiteCsvRow row;
  row.line = 2;
  row.callstack = "app.x!0x100";
  row.alloc_count = 3;
  csv.rows.push_back(row);
  CheckContext ctx;
  ctx.sites = &csv;
  expect_fires(run(ctx), "sites-zero-footprint", Severity::kWarning);
}

TEST(SitesRules, DuplicateStackInCsv) {
  SiteCsv csv;
  SiteCsvRow row;
  row.line = 2;
  row.callstack = "app.x!0x100";
  row.alloc_count = 1;
  row.max_size = 64;
  csv.rows.push_back(row);
  row.line = 3;
  csv.rows.push_back(row);
  CheckContext ctx;
  ctx.sites = &csv;
  expect_fires(run(ctx), "sites-duplicate-stack");
}

TEST(SitesRules, UnknownStackNotInTrace) {
  const auto b = clean_bundle();
  SiteCsv csv;
  SiteCsvRow row;
  row.line = 2;
  row.callstack = "app.x!0xdead";  // never interned in the trace
  row.alloc_count = 1;
  row.max_size = 64;
  csv.rows.push_back(row);
  CheckContext ctx;
  ctx.bundle = &b;
  ctx.sites = &csv;
  expect_fires(run(ctx), "sites-unknown-stack");

  // The same row keyed by a real site is clean.
  csv.rows[0].callstack = bom::format_bom(b.trace.stacks.stack(0), b.modules);
  expect_silent(run(ctx), "sites-unknown-stack");
}

// ------------------------------------------------------------ config/report

TEST(ConfigRules, NegativeCoefficient) {
  auto cfg = advisor::AdvisorConfig::dram_pmem(1 << 30, 0.0);
  cfg.tiers[0].load_coef = -1.0;
  CheckContext ctx;
  ctx.config = &cfg;
  expect_fires(run(ctx), "config-coefficients");
}

TEST(ConfigRules, NonFiniteCoefficient) {
  auto cfg = advisor::AdvisorConfig::dram_pmem(1 << 30, 0.0);
  cfg.tiers[1].store_coef = std::numeric_limits<double>::quiet_NaN();
  CheckContext ctx;
  ctx.config = &cfg;
  expect_fires(run(ctx), "config-coefficients");

  const auto clean = advisor::AdvisorConfig::dram_pmem(1 << 30, 0.125);
  CheckContext clean_ctx;
  clean_ctx.config = &clean;
  expect_silent(run(clean_ctx), "config-coefficients");
}

flexmalloc::ParsedReport bom_report(const bom::CallStack& stack, std::string tier, Bytes size) {
  flexmalloc::ParsedReport report;
  report.is_bom = true;
  report.fallback_tier = "pmem";
  flexmalloc::ReportEntry entry;
  entry.stack = stack;
  entry.tier = std::move(tier);
  entry.size = size;
  report.entries.push_back(std::move(entry));
  return report;
}

TEST(ReportRules, CapacityOverflow) {
  const auto cfg = advisor::AdvisorConfig::dram_pmem(4096, 0.0);
  const auto report = bom_report(bom::CallStack{{{0, 0x100}}}, "dram", 1 << 20);
  CheckContext ctx;
  ctx.config = &cfg;
  ctx.report = &report;
  expect_fires(run(ctx), "report-capacity");

  const auto fits = bom_report(bom::CallStack{{{0, 0x100}}}, "dram", 4096);
  ctx.report = &fits;
  expect_silent(run(ctx), "report-capacity");
}

TEST(ReportRules, CapacitySaturatesInsteadOfWrapping) {
  const auto cfg = advisor::AdvisorConfig::dram_pmem(4096, 0.0);
  auto report = bom_report(bom::CallStack{{{0, 0x100}}}, "dram",
                           std::numeric_limits<Bytes>::max());
  flexmalloc::ReportEntry second;
  second.stack = bom::CallStack{{{0, 0x200}}};
  second.tier = "dram";
  second.size = std::numeric_limits<Bytes>::max();  // would wrap to small if unchecked
  report.entries.push_back(std::move(second));
  CheckContext ctx;
  ctx.config = &cfg;
  ctx.report = &report;
  expect_fires(run(ctx), "report-capacity");
}

TEST(ReportRules, UnknownTier) {
  const auto cfg = advisor::AdvisorConfig::dram_pmem(1 << 30, 0.0);
  const auto report = bom_report(bom::CallStack{{{0, 0x100}}}, "hbm3", 64);
  CheckContext ctx;
  ctx.config = &cfg;
  ctx.report = &report;
  expect_fires(run(ctx), "report-unknown-tier");
}

TEST(ReportRules, MissingFallbackWarns) {
  auto report = bom_report(bom::CallStack{{{0, 0x100}}}, "dram", 64);
  report.fallback_tier.clear();
  CheckContext ctx;
  ctx.report = &report;
  expect_fires(run(ctx), "report-fallback", Severity::kWarning);
}

TEST(ReportRules, DuplicateEntryConflictingTiers) {
  auto report = bom_report(bom::CallStack{{{0, 0x100}}}, "dram", 64);
  flexmalloc::ReportEntry dup;
  dup.stack = bom::CallStack{{{0, 0x100}}};
  dup.tier = "pmem";
  report.entries.push_back(std::move(dup));
  CheckContext ctx;
  ctx.report = &report;
  expect_fires(run(ctx), "report-duplicate-entry");
}

TEST(ReportRules, DuplicateEntrySameTierWarns) {
  auto report = bom_report(bom::CallStack{{{0, 0x100}}}, "dram", 64);
  report.entries.push_back(report.entries.front());
  CheckContext ctx;
  ctx.report = &report;
  expect_fires(run(ctx), "report-duplicate-entry", Severity::kWarning);
}

TEST(ReportRules, DanglingSiteNotInTrace) {
  const auto b = clean_bundle();
  const auto report = bom_report(bom::CallStack{{{0, 0xdddd}}}, "dram", 64);
  CheckContext ctx;
  ctx.bundle = &b;
  ctx.report = &report;
  expect_fires(run(ctx), "report-site-in-trace");

  const auto placed = bom_report(b.trace.stacks.stack(0), "dram", 64);
  ctx.report = &placed;
  expect_silent(run(ctx), "report-site-in-trace");
}

TEST(ReportRules, BandwidthMoveOutsideClasses) {
  const auto b = clean_bundle();
  const auto analysis = analyzer::analyze(b.trace);
  ASSERT_TRUE(analysis.has_value());

  // Three tiers; site footprints (4 KiB / 8 KiB) never fit the 1-byte
  // DRAM budget, so the density pass places every site on 'hbm'.
  advisor::AdvisorConfig cfg;
  advisor::TierPolicy dram;
  dram.name = "dram";
  dram.limit = 1;
  advisor::TierPolicy hbm;
  hbm.name = "hbm";
  hbm.limit = 1ull << 30;
  hbm.order = 1;
  advisor::TierPolicy pmem;
  pmem.name = "pmem";
  pmem.limit = 1ull << 40;
  pmem.order = 2;
  pmem.fallback = true;
  cfg.tiers = {dram, hbm, pmem};

  const auto base = advisor::place_by_density(analysis->sites, cfg);
  ASSERT_TRUE(base.has_value());
  ASSERT_FALSE(base->decisions.empty());
  ASSERT_EQ(base->decisions.front().tier, "hbm");

  // Moving an hbm-placed site to pmem leaves the dram/pmem exchange
  // classes of the §VII pass: the report can't have come from it.
  const auto moved = bom_report(base->decisions.front().callstack, "pmem", 4096);
  CheckContext ctx;
  ctx.bundle = &b;
  ctx.analysis = &*analysis;
  ctx.config = &cfg;
  ctx.report = &moved;
  expect_fires(run(ctx), "report-bw-classes");

  // The same site kept on its base tier is clean.
  const auto kept = bom_report(base->decisions.front().callstack, "hbm", 4096);
  ctx.report = &kept;
  expect_silent(run(ctx), "report-bw-classes");
}

TEST(ReportRules, DramToPmemMoveIsAllowed) {
  const auto b = clean_bundle();
  const auto analysis = analyzer::analyze(b.trace);
  ASSERT_TRUE(analysis.has_value());
  const auto cfg = advisor::AdvisorConfig::dram_pmem(1 << 30, 0.0);
  const auto base = advisor::place_by_density(analysis->sites, cfg);
  ASSERT_TRUE(base.has_value());
  ASSERT_EQ(base->decisions.front().tier, "dram");

  const auto moved = bom_report(base->decisions.front().callstack, "pmem", 4096);
  CheckContext ctx;
  ctx.bundle = &b;
  ctx.analysis = &*analysis;
  ctx.config = &cfg;
  ctx.report = &moved;
  expect_silent(run(ctx), "report-bw-classes");
}

// ------------------------------------------------------------ trace-v3-index

/// Three chained 10-event blocks: 100..200..300..400, footer at 400.
TraceIndexView clean_index() {
  TraceIndexView idx;
  idx.events_offset = 100;
  idx.footer_offset = 400;
  idx.file_size = 496;
  idx.header_event_count = 30;
  const auto block = [](std::uint64_t offset, std::uint64_t first_time) {
    TraceIndexView::Entry e;
    e.offset = offset;
    e.count = 10;
    e.first_time = first_time;
    return e;
  };
  idx.entries = {block(100, 5), block(200, 50), block(300, 500)};
  return idx;
}

TEST(TraceV3IndexRule, CleanIndexIsSilent) {
  const TraceIndexView idx = clean_index();
  CheckContext ctx;
  ctx.trace_index = &idx;
  const RunResult result = run(ctx);
  EXPECT_NE(std::find(result.rules_run.begin(), result.rules_run.end(), "trace-v3-index"),
            result.rules_run.end());
  expect_silent(result, "trace-v3-index");
}

TEST(TraceV3IndexRule, SkippedWithoutAnIndex) {
  CheckContext ctx;  // v1/v2 trace: no index view
  const RunResult result = run(ctx);
  EXPECT_NE(std::find(result.rules_skipped.begin(), result.rules_skipped.end(), "trace-v3-index"),
            result.rules_skipped.end());
}

TEST(TraceV3IndexRule, ReportsEveryViolationNotJustTheFirst) {
  TraceIndexView idx = clean_index();
  idx.entries[0].offset = 90;     // does not start at the event section
  idx.entries[1].count = 0;       // empty block (and the sum drops to 20)
  idx.entries[2].offset = 160;    // non-increasing offset
  idx.entries[2].first_time = 1;  // timestamp regression
  CheckContext ctx;
  ctx.trace_index = &idx;
  const auto found = diags_with(run(ctx), "trace-v3-index");
  EXPECT_GE(found.size(), 5u) << "expected one diagnostic per violation";
  for (const auto& d : found) EXPECT_EQ(d.severity, Severity::kError) << d.message;
}

TEST(TraceV3IndexRule, OffsetPastFooterFires) {
  TraceIndexView idx = clean_index();
  idx.entries[2].offset = 400;  // at the footer
  idx.entries[2].first_time = 600;
  CheckContext ctx;
  ctx.trace_index = &idx;
  expect_fires(run(ctx), "trace-v3-index");
}

TEST(TraceV3IndexRule, CountSumMismatchFires) {
  TraceIndexView idx = clean_index();
  idx.header_event_count = 31;
  CheckContext ctx;
  ctx.trace_index = &idx;
  expect_fires(run(ctx), "trace-v3-index");
}

TEST(TraceV3IndexRule, EmptyIndexMustMatchAnEmptyTrace) {
  TraceIndexView idx;
  idx.events_offset = 100;
  idx.footer_offset = 120;  // 20 stray event bytes with no block
  idx.file_size = 144;
  idx.header_event_count = 4;
  CheckContext ctx;
  ctx.trace_index = &idx;
  const auto found = diags_with(run(ctx), "trace-v3-index");
  EXPECT_EQ(found.size(), 2u);  // stray bytes + unaccounted events

  idx.footer_offset = 100;
  idx.header_event_count = 0;
  expect_silent(run(ctx), "trace-v3-index");
}

// -------------------------------------------------------- migration log

/// A well-formed two-row log (one whole move, one partial chunk) whose
/// summary restates exactly what the rows add up to.
constexpr std::string_view kCleanMigrationLog =
    "at_ns,object,from_tier,to_tier,bytes,offset,partial\n"
    "1000,7,1,0,4096,0,0\n"
    "2000,9,1,0,2097152,2097152,1\n"
    "# summary scheduled=3 applied=2 partial=1 cancelled=1 migrated_bytes=2101248\n";

TEST(MigrationLogParser, ParsesRowsAndSummary) {
  const auto log = parse_migration_log(kCleanMigrationLog);
  ASSERT_TRUE(log.has_value()) << log.error();
  ASSERT_EQ(log->rows.size(), 2u);
  EXPECT_EQ(log->rows[0].at, 1000);
  EXPECT_EQ(log->rows[0].object, 7u);
  EXPECT_EQ(log->rows[0].offset, 0u);
  EXPECT_FALSE(log->rows[0].partial);
  EXPECT_EQ(log->rows[1].line, 3u);
  EXPECT_EQ(log->rows[1].bytes, 2097152u);
  EXPECT_TRUE(log->rows[1].partial);
  EXPECT_TRUE(log->has_summary);
  EXPECT_EQ(log->scheduled, 3u);
  EXPECT_EQ(log->applied, 2u);
  EXPECT_EQ(log->partial_moves, 1u);
  EXPECT_EQ(log->cancelled, 1u);
  EXPECT_EQ(log->migrated_bytes, 2101248u);
}

TEST(MigrationLogParser, RejectsBadHeaderRowShapeAndSummaryField) {
  EXPECT_FALSE(parse_migration_log("").has_value());
  EXPECT_FALSE(parse_migration_log("time,object\n").has_value());
  // Six columns instead of seven.
  EXPECT_FALSE(parse_migration_log("at_ns,object,from_tier,to_tier,bytes,offset,partial\n"
                                   "1000,7,1,0,4096,0\n")
                   .has_value());
  // partial must be 0/1.
  EXPECT_FALSE(parse_migration_log("at_ns,object,from_tier,to_tier,bytes,offset,partial\n"
                                   "1000,7,1,0,4096,0,2\n")
                   .has_value());
  // Unknown summary field (a typo must not silently drop a counter).
  EXPECT_FALSE(parse_migration_log("at_ns,object,from_tier,to_tier,bytes,offset,partial\n"
                                   "# summary scheduled=0 applied=0 partail=0\n")
                   .has_value());
}

TEST(MigrationLogParser, TruncatedLogParsesWithoutSummary) {
  const auto log = parse_migration_log(
      "at_ns,object,from_tier,to_tier,bytes,offset,partial\n"
      "1000,7,1,0,4096,0,0\n");
  ASSERT_TRUE(log.has_value()) << log.error();
  EXPECT_EQ(log->rows.size(), 1u);
  EXPECT_FALSE(log->has_summary);
}

TEST(MigrationRules, CleanLogIsSilent) {
  const auto log = parse_migration_log(kCleanMigrationLog);
  ASSERT_TRUE(log.has_value());
  CheckContext ctx;
  ctx.migration_log = &*log;
  const auto result = run(ctx);
  expect_silent(result, "migration-conservation");
  expect_silent(result, "migration-ranges");
  expect_silent(result, "migration-time-order");
  // No policy INI in the context: the alignment rule must be skipped.
  EXPECT_NE(std::find(result.rules_skipped.begin(), result.rules_skipped.end(),
                      "migration-chunk-alignment"),
            result.rules_skipped.end());
}

TEST(MigrationRules, ConservationCatchesEveryBrokenIdentity) {
  auto log = *parse_migration_log(kCleanMigrationLog);
  log.applied = 5;           // != 2 rows
  log.partial_moves = 0;     // != 1 partial row
  log.migrated_bytes = 1;    // != row byte sum
  log.scheduled = 100;       // != applied + cancelled
  CheckContext ctx;
  ctx.migration_log = &log;
  EXPECT_EQ(diags_with(run(ctx), "migration-conservation").size(), 4u);
}

TEST(MigrationRules, MissingSummaryIsAConservationError) {
  auto log = *parse_migration_log(kCleanMigrationLog);
  log.has_summary = false;
  CheckContext ctx;
  ctx.migration_log = &log;
  expect_fires(run(ctx), "migration-conservation");
}

TEST(MigrationRules, RangesCatchZeroBytesSameTierAndUnflaggedOffset) {
  auto log = *parse_migration_log(kCleanMigrationLog);
  log.rows[0].bytes = 0;
  log.rows[0].from_tier = log.rows[0].to_tier;
  log.rows[1].partial = false;  // offset 2 MiB without the partial flag
  CheckContext ctx;
  ctx.migration_log = &log;
  EXPECT_EQ(diags_with(run(ctx), "migration-ranges").size(), 3u);
}

TEST(MigrationRules, TimeOrderCatchesRegression) {
  auto log = *parse_migration_log(kCleanMigrationLog);
  log.rows[1].at = log.rows[0].at - 1;
  CheckContext ctx;
  ctx.migration_log = &log;
  expect_fires(run(ctx), "migration-time-order");
}

TEST(MigrationRules, ChunkAlignmentChecksPartialOffsetsAgainstThePolicy) {
  const auto log = parse_migration_log(kCleanMigrationLog);
  ASSERT_TRUE(log.has_value());
  const auto policy = Config::parse(
      "[online]\nchunk_bytes = 2MB\nhuge_object_bytes = 1GB\n");
  ASSERT_TRUE(policy.has_value()) << policy.error();
  CheckContext ctx;
  ctx.migration_log = &*log;
  ctx.online = &*policy;
  expect_silent(run(ctx), "migration-chunk-alignment");

  // A 4 MiB chunk policy makes the 2 MiB offset misaligned: this log
  // cannot have come from a run under that policy.
  const auto bigger = Config::parse(
      "[online]\nchunk_bytes = 4MB\nhuge_object_bytes = 1GB\n");
  ASSERT_TRUE(bigger.has_value());
  ctx.online = &*bigger;
  expect_fires(run(ctx), "migration-chunk-alignment");
}

}  // namespace
}  // namespace ecohmem::check
