// tegrec_lint rule tests: each fixture under tests/lint_fixtures/ plants
// known violations at known lines; this suite asserts every rule fires
// exactly where expected, that suppressions and the baseline work, and
// that the real repo is lint-clean (the same invariant the lint_repo
// CTest entry gates on, but with readable per-rule failure messages).
//
// Fixtures are scanned under *synthetic* relpaths (e.g. src/core/...)
// because rule applicability is path-driven; the fixture directory itself
// is never compiled (the build only globs tests/*.cpp).
//
// TEGREC_SOURCE_DIR is injected by CMake for this test only.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

#ifndef TEGREC_SOURCE_DIR
#error "test_lint needs TEGREC_SOURCE_DIR (see CMakeLists.txt)"
#endif

namespace tegrec::lint {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path.string());
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

std::string fixture(const std::string& name) {
  return read_file(fs::path(TEGREC_SOURCE_DIR) / "tests" / "lint_fixtures" /
                   name);
}

/// Sorted (rule, line) pairs for all findings of `rule`.
std::vector<std::size_t> lines_of(const std::vector<Finding>& findings,
                                  const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string dump(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << "  " << f.file << ":" << f.line << ": [" << f.rule << "] "
       << f.message << "\n";
  }
  return os.str();
}

// ------------------------------------------------------------- determinism

TEST(LintDeterminism, FiresOnEveryPlantedWallClockAndRngSite) {
  const auto findings =
      scan_source("src/core/bad_wallclock.cpp", fixture("bad_wallclock.cpp"));
  EXPECT_EQ(lines_of(findings, "determinism"),
            (std::vector<std::size_t>{8, 9, 12, 16, 18}))
      << dump(findings);
  // Nothing else in the fixture should trip other rules.
  EXPECT_EQ(findings.size(), 5u) << dump(findings);
}

TEST(LintDeterminism, DoesNotApplyOutsideSimulationLayers) {
  // Same content, but under src/util (the sanctioned-wrapper substrate)
  // and under tools/: the determinism rule must not apply.
  const auto util_findings =
      scan_source("src/util/bad_wallclock.cpp", fixture("bad_wallclock.cpp"));
  EXPECT_TRUE(lines_of(util_findings, "determinism").empty())
      << dump(util_findings);
  const auto tool_findings =
      scan_source("tools/bad_wallclock.cpp", fixture("bad_wallclock.cpp"));
  EXPECT_TRUE(lines_of(tool_findings, "determinism").empty())
      << dump(tool_findings);
}

TEST(LintDeterminism, SanctionedWrappersStayClean) {
  // The one wall-clock door (util/runtime_clock.hpp) and the RNG door
  // (util/rng.hpp) live in src/util, outside the determinism scope, and
  // must scan clean under their real paths.
  for (const char* rel : {"src/util/runtime_clock.hpp", "src/util/rng.hpp"}) {
    const auto findings =
        scan_source(rel, read_file(fs::path(TEGREC_SOURCE_DIR) / rel));
    EXPECT_TRUE(findings.empty()) << rel << ":\n" << dump(findings);
  }
}

// ------------------------------------------------------------ float hygiene

TEST(LintFloat, EqFiresOnLiteralComparisonsOnly) {
  const auto findings =
      scan_source("src/core/bad_float.cpp", fixture("bad_float.cpp"));
  EXPECT_EQ(lines_of(findings, "float-eq"), (std::vector<std::size_t>{6, 7}))
      << dump(findings);
}

TEST(LintFloat, TolFiresOnBareLiteralTolerancesOnly) {
  const auto findings =
      scan_source("src/core/bad_float.cpp", fixture("bad_float.cpp"));
  EXPECT_EQ(lines_of(findings, "float-tol"), (std::vector<std::size_t>{9, 11}))
      << dump(findings);
  // Nothing beyond the four planted float findings (comments and string
  // contents mentioning violations must be stripped before scanning).
  EXPECT_EQ(findings.size(), 4u) << dump(findings);
}

// ------------------------------------------------------------- suppression

TEST(LintSuppression, AllowCommentsSuppressOnlyTheNamedRule) {
  const auto findings =
      scan_source("src/core/suppressed.cpp", fixture("suppressed.cpp"));
  // Same-line, preceding-comment-line, and multi-rule allow() forms all
  // suppress; an allow() naming the wrong rule does not.
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_EQ(findings[0].rule, "float-eq");
  EXPECT_EQ(findings[0].line, 16u);
}

// ---------------------------------------------------------------- api-io

TEST(LintApiIo, FiresOnConsoleIoButNotStringFormatting) {
  const auto findings =
      scan_source("src/sim/bad_api_io.cpp", fixture("bad_api_io.cpp"));
  EXPECT_EQ(lines_of(findings, "api-io"), (std::vector<std::size_t>{7, 8, 9}))
      << dump(findings);
  EXPECT_EQ(findings.size(), 3u) << dump(findings);
}

// ------------------------------------------------------------ raw-publish

TEST(LintRawPublish, FiresOnOfstreamAndRenameButNotTheUtilDoor) {
  const auto findings = scan_source("src/sim/bad_raw_publish.cpp",
                                    fixture("bad_raw_publish.cpp"));
  // std::ofstream (8), std::filesystem::rename (10), ::rename (11); the
  // door wrappers rename_file/atomic_write_file and the allow()-suppressed
  // ofstream must stay clean.
  EXPECT_EQ(lines_of(findings, "raw-publish"),
            (std::vector<std::size_t>{8, 10, 11}))
      << dump(findings);
  EXPECT_EQ(findings.size(), 3u) << dump(findings);
}

TEST(LintRawPublish, AppliesOnlyUnderSimLayer) {
  // The same content under src/util (home of the sanctioned door) or under
  // tools/ must not trip the rule — the funnel constrains the simulation
  // layer, not the door's own implementation.
  const auto util_findings = scan_source("src/util/bad_raw_publish.cpp",
                                         fixture("bad_raw_publish.cpp"));
  EXPECT_TRUE(lines_of(util_findings, "raw-publish").empty())
      << dump(util_findings);
  const auto tool_findings = scan_source("tools/bad_raw_publish.cpp",
                                         fixture("bad_raw_publish.cpp"));
  EXPECT_TRUE(lines_of(tool_findings, "raw-publish").empty())
      << dump(tool_findings);
}

// ----------------------------------------------------------- header rules

TEST(LintHeader, IfndefGuardAndUsingNamespaceAreFlagged) {
  const auto findings =
      scan_source("src/util/bad_header.hpp", fixture("bad_header.hpp"));
  EXPECT_EQ(lines_of(findings, "using-namespace"),
            (std::vector<std::size_t>{8}))
      << dump(findings);
  const auto guard = lines_of(findings, "include-guard");
  ASSERT_EQ(guard.size(), 1u) << dump(findings);
  // The message distinguishes ifndef guards from no guard at all.
  for (const Finding& f : findings) {
    if (f.rule == "include-guard") {
      EXPECT_NE(f.message.find("#ifndef"), std::string::npos) << f.message;
    }
  }
}

TEST(LintHeader, MissingGuardIsFlagged) {
  const auto findings = scan_source("src/util/bad_missing_guard.hpp",
                                    fixture("bad_missing_guard.hpp"));
  EXPECT_EQ(lines_of(findings, "include-guard"),
            (std::vector<std::size_t>{1}))
      << dump(findings);
}

TEST(LintHeader, RulesDoNotApplyToCppFiles) {
  const auto findings =
      scan_source("src/util/bad_header.cpp", fixture("bad_header.hpp"));
  EXPECT_TRUE(lines_of(findings, "include-guard").empty()) << dump(findings);
  EXPECT_TRUE(lines_of(findings, "using-namespace").empty()) << dump(findings);
}

// --------------------------------------------------------- guarded-member

TEST(LintGuardedMember, FiresOnUnguardedMembersOfMutexOwningClasses) {
  const auto findings = scan_source("src/sim/bad_unguarded_member.cpp",
                                    fixture("bad_unguarded_member.cpp"));
  // Line 13: plain member next to a mutex.  Line 20: its allow() names a
  // different rule and must NOT suppress.  The annotated, atomic, const
  // and correctly-allowed members — and the mutex-free class — are clean.
  EXPECT_EQ(lines_of(findings, "guarded-member"),
            (std::vector<std::size_t>{13, 20}))
      << dump(findings);
  EXPECT_EQ(findings.size(), 2u) << dump(findings);
  for (const Finding& f : findings) {
    if (f.line == 13) {
      EXPECT_EQ(f.detail, "Planted.unguarded_counter_");
    }
    if (f.line == 20) {
      EXPECT_EQ(f.detail, "Planted.wrong_allow_counter_");
    }
  }
}

TEST(LintGuardedMember, AppliesOnlyInConcurrencyLayer) {
  const auto findings = scan_source("src/core/bad_unguarded_member.cpp",
                                    fixture("bad_unguarded_member.cpp"));
  EXPECT_TRUE(lines_of(findings, "guarded-member").empty())
      << dump(findings);
}

// -------------------------------------------------------- lock-discipline

TEST(LintLockDiscipline, FiresOnRawPrimitivesButNotTheRaiiDoor) {
  const auto findings =
      scan_source("src/sim/bad_raw_lock.cpp", fixture("bad_raw_lock.cpp"));
  // 7: std::mutex declaration; 10/11/12: raw .lock/.unlock/.try_lock.
  // The allow()-suppressed unlock and the util::MutexLock usage are clean.
  EXPECT_EQ(lines_of(findings, "lock-discipline"),
            (std::vector<std::size_t>{7, 10, 11, 12}))
      << dump(findings);
  EXPECT_EQ(findings.size(), 4u) << dump(findings);
}

TEST(LintLockDiscipline, MutexWrapperFileIsExempt) {
  // The annotated RAII door has to touch the raw primitives; the same
  // content scanned under its real path must not trip the rule.
  const auto findings =
      scan_source("src/util/mutex.hpp", fixture("bad_raw_lock.cpp"));
  EXPECT_TRUE(lines_of(findings, "lock-discipline").empty())
      << dump(findings);
}

TEST(LintLockDiscipline, DetachIsBannedRepoWide) {
  // src/core is outside the concurrency layer; .detach() fires anyway.
  const auto findings = scan_source("src/core/bad_detached_thread.cpp",
                                    fixture("bad_detached_thread.cpp"));
  ASSERT_EQ(lines_of(findings, "lock-discipline"),
            (std::vector<std::size_t>{7}))
      << dump(findings);
  EXPECT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_NE(findings[0].message.find("detach"), std::string::npos)
      << findings[0].message;
}

// ------------------------------------------------------- annotation-drift

TEST(LintAnnotationDrift, HeaderNamingMutexWithoutAnnotationsFails) {
  const auto findings = scan_source("src/util/bad_unannotated_header.hpp",
                                    fixture("bad_unannotated_header.hpp"));
  EXPECT_EQ(lines_of(findings, "annotation-drift"),
            (std::vector<std::size_t>{1}))
      << dump(findings);
  // The unguarded member also fires on its own line — the two rules catch
  // the same drift from different angles.
  EXPECT_EQ(lines_of(findings, "guarded-member"),
            (std::vector<std::size_t>{14}))
      << dump(findings);
  EXPECT_EQ(findings.size(), 2u) << dump(findings);
}

TEST(LintAnnotationDrift, OnlyConcurrencyLayerHeadersAreChecked) {
  const auto cpp = scan_source("src/util/bad_unannotated_header.cpp",
                               fixture("bad_unannotated_header.hpp"));
  EXPECT_TRUE(lines_of(cpp, "annotation-drift").empty()) << dump(cpp);
  const auto outside = scan_source("src/core/bad_unannotated_header.hpp",
                                   fixture("bad_unannotated_header.hpp"));
  EXPECT_TRUE(lines_of(outside, "annotation-drift").empty())
      << dump(outside);
  EXPECT_TRUE(lines_of(outside, "guarded-member").empty()) << dump(outside);
}

// ------------------------------------------------------------- cache-key

TEST(LintCacheKey, ParsesDataMembersOnly) {
  const auto fields =
      parse_struct_fields(fixture("cache_key_config.hpp"), "DemoConfig");
  std::vector<std::string> names;
  names.reserve(fields.size());
  for (const FieldDecl& f : fields) names.push_back(f.name);
  // Member functions, the nested enum, the static member, and operator==
  // must all be skipped; declaration lines must be exact.
  EXPECT_EQ(names, (std::vector<std::string>{"mode", "duration_s", "gains",
                                             "not_serialised_w",
                                             "debug_label"}));
  for (const FieldDecl& f : fields) {
    if (f.name == "not_serialised_w") {
      EXPECT_EQ(f.line, 19u);
    }
    if (f.name == "mode") {
      EXPECT_EQ(f.line, 16u);
    }
  }
}

TEST(LintCacheKey, FlagsUnserialisedFieldButHonoursExclusions) {
  const StructSpec spec{"tests/lint_fixtures/cache_key_config.hpp",
                        "DemoConfig",
                        {{"debug_label", "execution hint, not physics"}},
                        "bindings.cpp"};
  const auto findings =
      check_cache_key(spec, fixture("cache_key_config.hpp"),
                      fixture("cache_key_bindings.cpp"), "bindings.cpp");
  // Exactly one violation: not_serialised_w is only mentioned in comments
  // of the bindings file, which must not count.
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_EQ(findings[0].rule, "cache-key");
  EXPECT_EQ(findings[0].line, 19u);
  EXPECT_EQ(findings[0].detail, "DemoConfig.not_serialised_w");
}

TEST(LintCacheKey, FlagsStaleExclusionsAndRenamedStructs) {
  StructSpec spec{"cache_key_config.hpp",
                  "DemoConfig",
                  {{"debug_label", "exec"}, {"ghost_field", "obsolete"}},
                  "bindings.cpp"};
  auto findings =
      check_cache_key(spec, fixture("cache_key_config.hpp"),
                      fixture("cache_key_bindings.cpp"), "bindings.cpp");
  bool stale_flagged = false;
  for (const Finding& f : findings) {
    if (f.detail == "stale-exclusion:DemoConfig.ghost_field") {
      stale_flagged = true;
    }
  }
  EXPECT_TRUE(stale_flagged) << dump(findings);

  // A renamed struct must fail loudly, not silently stop being checked.
  spec.struct_name = "RenamedConfig";
  findings = check_cache_key(spec, fixture("cache_key_config.hpp"),
                             fixture("cache_key_bindings.cpp"),
                             "bindings.cpp");
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_EQ(findings[0].detail, "struct:RenamedConfig");
}

TEST(LintCacheKey, RealStructTableParsesKnownFields) {
  // Contains-checks (not exact sets) so future fields do not break this
  // test; their serialisation is covered by the repo-clean test below and
  // by tests/test_fingerprint_fields.cpp at runtime.
  struct Expect {
    const char* header;
    const char* name;
    std::vector<std::string> some_fields;
  };
  const std::vector<Expect> expects = {
      {"src/sim/spec.hpp", "ExperimentSpec", {"kind", "trace", "mc_num_seeds"}},
      {"src/thermal/trace.hpp",
       "TraceGeneratorConfig",
       {"sample_dt_s", "sim_dt_s", "seed"}},
      {"src/thermal/drive_cycle.hpp", "DriveSegment", {"duration_s"}},
  };
  for (const Expect& e : expects) {
    const auto fields = parse_struct_fields(
        read_file(fs::path(TEGREC_SOURCE_DIR) / e.header), e.name);
    ASSERT_FALSE(fields.empty()) << e.name << " not found in " << e.header;
    std::set<std::string> names;
    for (const FieldDecl& f : fields) names.insert(f.name);
    for (const std::string& want : e.some_fields) {
      EXPECT_EQ(names.count(want), 1u)
          << e.name << " missing expected field " << want;
    }
  }
}

// ------------------------------------------------------ baseline mechanics

TEST(LintBaseline, ParseIgnoresCommentsAndFiltersFindings) {
  const auto keys = parse_baseline(
      "# comment\n"
      "\n"
      "float-eq|src/foo.cpp|x == 0.0\n"
      "  determinism|src/bar.cpp|rand()  \n");
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys.count("float-eq|src/foo.cpp|x == 0.0"), 1u);
  EXPECT_EQ(keys.count("determinism|src/bar.cpp|rand()"), 1u);

  const Finding f{"src/foo.cpp", 12, "float-eq", "x == 0.0", "msg"};
  EXPECT_EQ(baseline_key(f), "float-eq|src/foo.cpp|x == 0.0");
}

// ------------------------------------------------------------- repo gate

TEST(LintRepo, RealSourceTreeIsCleanWithEmptyBaseline) {
  // The shipped baseline is empty: every historical violation was fixed in
  // this PR.  This is the same gate as the lint_repo CTest entry, kept
  // here too so a violation shows up with per-finding context in GTest
  // output.
  const RepoReport report = run_repo_lint(TEGREC_SOURCE_DIR, {});
  EXPECT_TRUE(report.findings.empty()) << dump(report.findings);
  EXPECT_TRUE(report.stale_baseline.empty());
  EXPECT_GT(report.files_scanned, 50u);
}

TEST(LintRepo, BaselineSuppressesAndReportsStaleEntries) {
  // Seed the baseline with one real-shaped key and one junk key: the junk
  // key must come back as stale (the ratchet only ever tightens).
  const std::set<std::string> baseline = {
      "determinism|src/never/exists.cpp|rand()"};
  const RepoReport report = run_repo_lint(TEGREC_SOURCE_DIR, baseline);
  EXPECT_TRUE(report.findings.empty()) << dump(report.findings);
  EXPECT_EQ(report.stale_baseline.size(), 1u);
}

// -------------------------------------------------------------- stripping

TEST(LintStrip, PreservesLineStructureAndRemovesProse) {
  const std::string in =
      "int x; // steady_clock\n"
      "/* rand() spans\n"
      "   lines */ int y;\n"
      "const char* s = \"printf(\";\n"
      "auto r = R\"(cout << x)\";\n";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(in.begin(), in.end(), '\n'));
  EXPECT_EQ(out.find("steady_clock"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("printf"), std::string::npos);
  EXPECT_EQ(out.find("cout"), std::string::npos);
  EXPECT_NE(out.find("int x;"), std::string::npos);
  EXPECT_NE(out.find("int y;"), std::string::npos);
}

}  // namespace
}  // namespace tegrec::lint
