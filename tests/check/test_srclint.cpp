// Tests for the source-level determinism lint (check/srclint.hpp),
// driven by the on-disk fixture trees under tests/check/srclint_fixtures:
// `fire/` holds one tiny file per rule that must produce findings,
// `clean/` the same constructs silenced by suppressions, sanctioned
// paths, or correct code. ECOHMEM_SRCLINT_FIXTURES is injected by the
// test's CMake entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ecohmem/check/srclint.hpp"

namespace ecohmem::check {
namespace {

std::string fixtures(const std::string& tree) {
  return std::string(ECOHMEM_SRCLINT_FIXTURES) + "/" + tree;
}

std::size_t count_rule(const SrclintResult& result, std::string_view id) {
  std::size_t n = 0;
  for (const auto& d : result.diagnostics) {
    if (d.rule == id) ++n;
  }
  return n;
}

TEST(Srclint, RuleTableAndLookup) {
  const auto& rules = srclint_rules();
  ASSERT_EQ(rules.size(), 4u);
  for (const auto& rule : rules) {
    EXPECT_TRUE(is_srclint_rule(rule.id));
    EXPECT_FALSE(rule.description.empty());
  }
  EXPECT_FALSE(is_srclint_rule("det-rnd"));
  EXPECT_FALSE(is_srclint_rule(""));
}

TEST(Srclint, FireTreeTripsEveryRule) {
  const auto result = srclint_scan_tree(fixtures("fire"));
  ASSERT_TRUE(result) << result.error();
  EXPECT_EQ(result->files_scanned, 4u);
  // nondet.cpp: 3 rand + 3 wall-clock; seeded.cpp (tools/): 1 rand.
  EXPECT_EQ(count_rule(*result, "det-rand"), 4u);
  EXPECT_EQ(count_rule(*result, "det-wallclock"), 3u);
  EXPECT_EQ(count_rule(*result, "det-unordered-iter"), 1u);
  EXPECT_EQ(count_rule(*result, "conc-raw-mutex"), 3u);
  EXPECT_FALSE(result->ok());
  for (const auto& d : result->diagnostics) {
    EXPECT_EQ(d.severity, Severity::kError);
    // Findings point at file:line relative to the scanned root.
    EXPECT_NE(d.artifact.find(':'), std::string::npos) << d.artifact;
  }
}

TEST(Srclint, FindingsAreDeterministicallyOrdered) {
  const auto first = srclint_scan_tree(fixtures("fire"));
  const auto second = srclint_scan_tree(fixtures("fire"));
  ASSERT_TRUE(first);
  ASSERT_TRUE(second);
  ASSERT_EQ(first->diagnostics.size(), second->diagnostics.size());
  for (std::size_t i = 0; i < first->diagnostics.size(); ++i) {
    EXPECT_EQ(first->diagnostics[i].artifact, second->diagnostics[i].artifact);
    EXPECT_EQ(first->diagnostics[i].rule, second->diagnostics[i].rule);
  }
  // Files are visited in sorted relative-path order: analyzer/ first.
  EXPECT_EQ(first->diagnostics.front().rule, "det-unordered-iter");
}

TEST(Srclint, CleanTreeHasNoFindings) {
  const auto result = srclint_scan_tree(fixtures("clean"));
  ASSERT_TRUE(result) << result.error();
  EXPECT_EQ(result->files_scanned, 4u);
  EXPECT_TRUE(result->diagnostics.empty())
      << result->diagnostics.front().rule << " at " << result->diagnostics.front().artifact
      << ": " << result->diagnostics.front().message;
  EXPECT_TRUE(result->ok());
}

TEST(Srclint, DisableSkipsRule) {
  SrclintOptions options;
  options.disabled_rules = {"det-rand", "conc-raw-mutex"};
  const auto result = srclint_scan_tree(fixtures("fire"), options);
  ASSERT_TRUE(result);
  EXPECT_EQ(count_rule(*result, "det-rand"), 0u);
  EXPECT_EQ(count_rule(*result, "conc-raw-mutex"), 0u);
  EXPECT_EQ(count_rule(*result, "det-wallclock"), 3u);
  EXPECT_EQ(result->rules_run.size(), 2u);
  ASSERT_EQ(result->rules_skipped.size(), 2u);
  EXPECT_NE(std::find(result->rules_skipped.begin(), result->rules_skipped.end(), "det-rand"),
            result->rules_skipped.end());
}

TEST(Srclint, MaxPerRuleFoldsExcessFindings) {
  SrclintOptions options;
  options.max_per_rule = 1;
  const auto result = srclint_scan_tree(fixtures("fire"), options);
  ASSERT_TRUE(result);
  // det-rand has 4 raw findings -> 1 reported + 1 summary.
  EXPECT_EQ(count_rule(*result, "det-rand"), 2u);
  bool summarized = false;
  for (const auto& d : result->diagnostics) {
    if (d.rule == "det-rand" && d.message.find("further findings") != std::string::npos) {
      summarized = true;
      EXPECT_NE(d.message.find('3'), std::string::npos);
    }
  }
  EXPECT_TRUE(summarized);
}

TEST(Srclint, MissingRootFails) {
  const auto result = srclint_scan_tree(fixtures("no_such_tree"));
  ASSERT_FALSE(result);
  EXPECT_NE(result.error().find("no src/ or tools/"), std::string::npos);
}

}  // namespace
}  // namespace ecohmem::check
