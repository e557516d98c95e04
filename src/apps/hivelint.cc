/**
 * @file
 * hivelint: static analysis CLI for the built-in workload programs.
 *
 * Builds the Twig framework plus every evaluation app (thumbnail,
 * pybbs, blog) into one Program -- exactly what the experiment
 * harness executes -- then runs every static pass over it:
 *
 *   1. bytecode verification of every method,
 *   2. offload classification of every endpoint root, with the
 *      interprocedural effect summary and minimal capture set each
 *      root's classification rests on,
 *   3. lock-order analysis (potential deadlock cycles in the
 *      program-wide lock graph),
 *   4. snapshot coverage: each app runs a short offload drill with
 *      the snapshot store enabled; the recorded image composition
 *      (klasses, objects, modeled image size) is reported and the
 *      store's coverage invariant -- every recorded working-set
 *      entry is either in the restore plan or counted stale -- is
 *      checked. A violation is an error.
 *   5. lockset race detection (vm/race_analysis.h): every shared
 *      klass.field / static / element scope is classified on the
 *      Eraser guard lattice; unguarded shared writes are findings
 *      (warnings normally, errors under --strict so CI can gate on
 *      them without also opting into strict typing).
 *   6. manifest soundness: each app runs a recording drill (as in
 *      pass 4), then the static working-set inference
 *      (vm/reachability_analysis.h) synthesizes a manifest for each
 *      recorded endpoint and the recorded working set is checked to
 *      be a *subset* of it. A recorded entry the manifest misses is
 *      a soundness violation (error under --strict) unless the root
 *      carries counted dynamic-dispatch escape hatches; the
 *      overfetch upper bound (static minus recorded) is reported as
 *      info, never gated.
 *
 * Findings are collected and sorted by (pass, class, method, pc)
 * before being emitted, so --json output is deterministic and
 * golden-file friendly.
 *
 * Usage: hivelint [--strict] [--quiet] [--json] [--pass <name>]
 *                 [--seed-race] [--seed-unreachable]
 *   --strict  closed-world typing (see VerifyOptions::strict_types;
 *             the built-in apps intentionally fail it),
 *             error-severity race findings, and error-severity
 *             manifest soundness violations.
 *   --quiet   print only errors and the summary.
 *   --json    one JSON object per finding on stdout (JSONL), no
 *             human-readable chrome.
 *   --pass <name>  run a single pass in isolation (CI bisection,
 *             pass-cost benchmarking). Names: verify, offload,
 *             lock-order, snapshot, race, manifest.
 *             "offload" covers the classification, effect and
 *             capture reports. An unknown name prints the list and
 *             exits 2.
 *   --seed-race  inject a deliberately racy synthetic handler into
 *             the program before analyzing (self-test: the race
 *             pass must flag it, so `hivelint --seed-race --strict
 *             --pass race` exiting 0 means the detector is broken).
 *   --seed-unreachable  run the manifest pass against a synthetic
 *             program whose static publishes an object *violating
 *             its type hint*, hiding a reachable field path from
 *             the analysis with zero escape hatches. The pass must
 *             report the dynamic reads escaping the static
 *             footprint, so `hivelint --seed-unreachable --pass
 *             manifest` exiting 0 means the checker is broken.
 *
 * Exit status: 0 when no Error-severity finding exists, 1 when at
 * least one does, 2 on usage errors or an internal failure (an
 * exception escaping the passes).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/blog.h"
#include "apps/framework.h"
#include "apps/pybbs.h"
#include "apps/thumbnail.h"
#include "core/server.h"
#include "harness/testbed.h"
#include "snapshot/store.h"
#include "support/strutil.h"
#include "vm/code_builder.h"
#include "vm/interpreter.h"
#include "vm/offload_analysis.h"
#include "vm/race_analysis.h"
#include "vm/reachability_analysis.h"
#include "vm/verifier.h"
#include "workload/clients.h"

using namespace beehive;

namespace {

/** One finding, regardless of which pass produced it. */
struct Finding
{
    std::string kind;     //!< pass: verify | offload | effect |
                          //!< capture | lock-order | snapshot |
                          //!< race | manifest
    std::string program;  //!< app / scope the finding concerns
    std::string method;   //!< qualified method name ("" when n/a)
    uint32_t pc = 0;
    std::string klass;    //!< machine-readable diagnostic class
    std::string severity; //!< error | warning | info
    std::string message;
};

/**
 * Every finding kind, in pipeline order (the order findings print
 * in). A selectable kind names a pass `--pass` can run alone; the
 * offload pass also reports `effect` and `capture` findings.
 */
constexpr struct
{
    const char *name;
    bool selectable;
} kPasses[] = {
    {"verify", true},
    {"offload", true},
    {"effect", false},
    {"capture", false},
    {"lock-order", true},
    {"snapshot", true},
    {"race", true},
    {"manifest", true},
};

/** Pipeline position of a pass kind, for deterministic ordering. */
int
passRank(const std::string &kind)
{
    for (std::size_t i = 0; i < std::size(kPasses); ++i)
        if (kind == kPasses[i].name)
            return static_cast<int>(i);
    return static_cast<int>(std::size(kPasses));
}

/** Is @p name a pass `--pass` can select? */
bool
selectablePass(const std::string &name)
{
    for (const auto &p : kPasses)
        if (p.selectable && name == p.name)
            return true;
    return false;
}

/** The selectable passes, space-separated (for the usage error). */
std::string
selectablePasses()
{
    std::string out;
    for (const auto &p : kPasses) {
        if (!p.selectable)
            continue;
        if (!out.empty())
            out += ' ';
        out += p.name;
    }
    return out;
}

/** Minimal JSON string escaping (quotes, backslash, control). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Collects findings; emit() sorts by (pass, class, method, pc) and
 * prints them all at once, so output order never depends on pass
 * scheduling or container iteration details.
 */
struct Reporter
{
    bool json = false;
    bool quiet = false;
    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::vector<Finding> findings;

    void
    add(Finding f)
    {
        if (f.severity == "error")
            ++errors;
        else if (f.severity == "warning")
            ++warnings;
        findings.push_back(std::move(f));
    }

    void
    emit()
    {
        std::stable_sort(
            findings.begin(), findings.end(),
            [](const Finding &a, const Finding &b) {
                return std::make_tuple(passRank(a.kind), a.klass,
                                       a.method, a.pc) <
                       std::make_tuple(passRank(b.kind), b.klass,
                                       b.method, b.pc);
            });
        for (const Finding &f : findings) {
            if (quiet && f.severity != "error")
                continue;
            if (json) {
                std::printf(
                    "{\"kind\":\"%s\",\"program\":\"%s\","
                    "\"method\":\"%s\",\"pc\":%u,"
                    "\"class\":\"%s\",\"severity\":\"%s\","
                    "\"message\":\"%s\"}\n",
                    jsonEscape(f.kind).c_str(),
                    jsonEscape(f.program).c_str(),
                    jsonEscape(f.method).c_str(), f.pc,
                    jsonEscape(f.klass).c_str(),
                    jsonEscape(f.severity).c_str(),
                    jsonEscape(f.message).c_str());
            } else {
                std::printf("%s [%s] %s\n", f.kind.c_str(),
                            f.program.c_str(), f.message.c_str());
            }
        }
    }
};

const char *
severityName(vm::Severity s)
{
    return s == vm::Severity::Error ? "error" : "warning";
}

const char *
offloadClassName(vm::OffloadClass c)
{
    switch (c) {
      case vm::OffloadClass::OffloadSafe: return "offload-safe";
      case vm::OffloadClass::NeedsFallback: return "needs-fallback";
      case vm::OffloadClass::LocalOnly: return "local-only";
    }
    return "?";
}

/** Passes 2+3: classification, effects, capture for one root. */
void
reportRoot(Reporter &rep, const vm::Program &program,
           const vm::OffloadAnalysis &analysis, const char *app,
           vm::MethodId root)
{
    vm::RootReport report = analysis.classifyRoot(root);
    std::string qname = program.qualifiedName(root);

    Finding f;
    f.kind = "offload";
    f.program = app;
    f.method = qname;
    f.klass = offloadClassName(report.klass);
    f.severity = "info";
    f.message = toString(report, program);
    rep.add(f);

    const vm::EffectSummary &sum =
        analysis.analysis().transitiveSummary(root);
    Finding e;
    e.kind = "effect";
    e.program = app;
    e.method = qname;
    e.klass = "effect-summary";
    e.severity = "info";
    e.message = strprintf(
        "%s: reads %zu static(s), writes %zu static(s), "
        "%zu shared lock(s), %u monitor(s) elided, "
        "%u volatile(s) elided",
        qname.c_str(), sum.statics_read.size(),
        sum.statics_written.size(), sum.locks.size(),
        sum.monitors_elided, sum.volatiles_elided);
    rep.add(e);

    vm::CaptureSet capture = analysis.captureForRoot(root);
    Finding c;
    c.kind = "capture";
    c.program = app;
    c.method = qname;
    c.klass = capture.all_fields ? "capture-widened"
                                 : "capture-set";
    c.severity = "info";
    c.message =
        qname + ": " + toString(capture, program);
    rep.add(c);
}

/**
 * Pass 4: snapshot coverage. Drives a short all-offload drill so
 * cold boots record their working sets, then checks the store's
 * coverage invariant and reports each endpoint's image composition.
 */
void
snapshotPass(Reporter &rep, harness::AppKind kind)
{
    harness::TestbedOptions options;
    options.app = kind;
    options.beehive.snapshot_enabled = true;
    harness::Testbed bed(options);
    const char *app = harness::appName(kind);
    if (!bed.runProfilingPhase() || bed.manager() == nullptr) {
        Finding f;
        f.kind = "snapshot";
        f.program = app;
        f.klass = "no-profile";
        f.severity = "warning";
        f.message = "profiling phase did not select the handler; "
                    "snapshot pass skipped";
        rep.add(f);
        return;
    }

    sim::SimTime t0 = bed.sim().now();
    bed.manager()->setOffloadRatio(1.0);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.start(2, t0);
    bed.sim().runUntil(t0 + sim::SimTime::sec(6));
    clients.stopAll();
    bed.sim().runUntil(t0 + sim::SimTime::sec(8));

    snapshot::SnapshotStore *snaps = bed.server().snapshots();
    uint64_t epoch = bed.server().collector().totals().collections;
    if (snaps == nullptr || snaps->recordedRoots() == 0) {
        Finding f;
        f.kind = "snapshot";
        f.program = app;
        f.klass = "no-recording";
        f.severity = "warning";
        f.message = "drill produced no recorded working set";
        rep.add(f);
        return;
    }

    for (const snapshot::ImageComposition &c :
         snaps->compositions(epoch)) {
        std::string qname = bed.program().qualifiedName(c.root);
        Finding f;
        f.kind = "snapshot";
        f.program = app;
        f.method = qname;
        f.klass = "image-composition";
        f.severity = "info";
        f.message = strprintf(
            "%s: %zu klass(es), %zu object(s), image %llu B, "
            "%llu boot(s) folded, %llu stale",
            qname.c_str(), c.klasses, c.objects,
            static_cast<unsigned long long>(c.image_bytes),
            static_cast<unsigned long long>(c.folded_boots),
            static_cast<unsigned long long>(c.stale_objects));
        rep.add(f);

        uint64_t missing = snaps->verifyCoverage(c.root, epoch);
        if (missing > 0) {
            Finding v;
            v.kind = "snapshot";
            v.program = app;
            v.method = qname;
            v.klass = "coverage-violation";
            v.severity = "error";
            v.message = strprintf(
                "%s: restore plan drops %llu recorded working-set "
                "entr%s (neither planned nor counted stale)",
                qname.c_str(),
                static_cast<unsigned long long>(missing),
                missing == 1 ? "y" : "ies");
            rep.add(v);
        }
    }
}

/**
 * Pass 5: lockset race detection. Unguarded shared writes are the
 * findings (error under --strict); guarded-by-unknown scopes are
 * surfaced as warnings because the guard claim rests on a lock the
 * analysis could not identify.
 */
void
racePass(Reporter &rep, const vm::Program &program,
         const vm::ProgramAnalysis &analysis, bool strict)
{
    vm::RaceAnalysis races(program, analysis);

    uint32_t guarded = 0, read_shared = 0, thread_local_scopes = 0;
    for (const vm::ScopeReport &scope : races.scopes()) {
        switch (scope.state) {
          case vm::GuardState::ThreadLocal:
            ++thread_local_scopes;
            continue;
          case vm::GuardState::ReadShared:
            ++read_shared;
            continue;
          case vm::GuardState::ConsistentlyGuarded:
            ++guarded;
            continue;
          case vm::GuardState::GuardedByUnknown: {
            Finding f;
            f.kind = "race";
            f.program = "builtin";
            f.method = scope.method == vm::kNoMethod
                           ? ""
                           : program.qualifiedName(scope.method);
            f.pc = scope.pc;
            f.klass = "guarded-by-unknown";
            f.severity = "warning";
            f.message = scope.describe(program);
            rep.add(f);
            continue;
          }
          case vm::GuardState::Unguarded: {
            Finding f;
            f.kind = "race";
            f.program = "builtin";
            f.method = scope.method == vm::kNoMethod
                           ? ""
                           : program.qualifiedName(scope.method);
            f.pc = scope.pc;
            f.klass = "unguarded-shared-write";
            f.severity = strict ? "error" : "warning";
            f.message = scope.describe(program);
            rep.add(f);
            continue;
          }
        }
    }

    Finding s;
    s.kind = "race";
    s.program = "builtin";
    s.klass = "guard-summary";
    s.severity = "info";
    s.message = strprintf(
        "%zu scope(s): %u thread-local, %u read-shared, "
        "%u consistently-guarded, %zu finding(s); "
        "%zu vacuous lock(s)%s",
        races.scopes().size(), thread_local_scopes, read_shared,
        guarded,
        races.scopes().size() - thread_local_scopes - read_shared -
            guarded,
        races.vacuousLocks().size(),
        races.incomplete() ? " (analysis incomplete: widened)" : "");
    rep.add(s);
}

/**
 * Pass 6: manifest soundness. Runs the same recording drill as the
 * snapshot pass, then synthesizes a static manifest for each
 * recorded endpoint (vm/reachability_analysis.h) and checks the
 * superset invariant: every recorded working-set entry must be in
 * the manifest. Misses on roots without escape hatches are
 * soundness violations (error under --strict); the overfetch upper
 * bound (static minus recorded) is informational only.
 */
void
manifestPass(Reporter &rep, harness::AppKind kind, bool strict)
{
    harness::TestbedOptions options;
    options.app = kind;
    options.beehive.snapshot_enabled = true;
    harness::Testbed bed(options);
    const char *app = harness::appName(kind);
    if (!bed.runProfilingPhase() || bed.manager() == nullptr) {
        Finding f;
        f.kind = "manifest";
        f.program = app;
        f.klass = "no-profile";
        f.severity = "warning";
        f.message = "profiling phase did not select the handler; "
                    "manifest pass skipped";
        rep.add(f);
        return;
    }

    sim::SimTime t0 = bed.sim().now();
    bed.manager()->setOffloadRatio(1.0);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(bed.sim(), bed.sink(),
                                        recorder);
    clients.start(2, t0);
    bed.sim().runUntil(t0 + sim::SimTime::sec(6));
    clients.stopAll();
    bed.sim().runUntil(t0 + sim::SimTime::sec(8));

    snapshot::SnapshotStore *snaps = bed.server().snapshots();
    uint64_t epoch = bed.server().collector().totals().collections;
    if (snaps == nullptr || snaps->recordedRoots() == 0) {
        Finding f;
        f.kind = "manifest";
        f.program = app;
        f.klass = "no-recording";
        f.severity = "warning";
        f.message = "drill produced no recorded working set";
        rep.add(f);
        return;
    }

    const vm::Program &program = bed.program();
    vm::ProgramAnalysis pa(program);
    vm::ReachabilityAnalysis reach(program, pa);

    for (const snapshot::ImageComposition &c :
         snaps->compositions(epoch)) {
        vm::MethodId root = c.root;
        std::string qname = program.qualifiedName(root);
        vm::ReachReport rr = reach.analyzeRoot(root);
        std::vector<vm::Ref> objects =
            reach.resolveFootprint(rr, bed.server().context());
        std::set<vm::Ref> manifest_objects(objects.begin(),
                                           objects.end());
        std::set<vm::KlassId> manifest_klasses(rr.klasses.begin(),
                                               rr.klasses.end());
        if (rr.needs_bytes_klass)
            manifest_klasses.insert(
                bed.server().context().config().bytes_klass);
        for (vm::Ref r : objects)
            manifest_klasses.insert(
                bed.server().heap().header(r).klass);

        snapshot::RestorePlan plan = snaps->planRestore(root, epoch);
        uint64_t missed_klasses = 0;
        std::string first_missed_klass;
        for (vm::KlassId k : plan.klasses) {
            if (manifest_klasses.count(k))
                continue;
            ++missed_klasses;
            if (first_missed_klass.empty())
                first_missed_klass = program.klass(k).name;
        }
        uint64_t missed_objects = 0;
        for (vm::Ref r : plan.objects) {
            if (!manifest_objects.count(r))
                ++missed_objects;
        }

        if (missed_klasses + missed_objects > 0) {
            Finding v;
            v.kind = "manifest";
            v.program = app;
            v.method = qname;
            if (rr.escape_hatches == 0) {
                v.klass = "manifest-unsound";
                v.severity = strict ? "error" : "warning";
            } else {
                // Recorded entries reached through dispatch sites
                // the analysis explicitly could not bound; the
                // escape hatches account for them.
                v.klass = "manifest-escape-hatch";
                v.severity = "info";
            }
            v.message = strprintf(
                "%s: recorded working set escapes the static "
                "manifest: %llu klass(es)%s%s%s, %llu object(s) "
                "missed (%u escape hatch(es))",
                qname.c_str(),
                static_cast<unsigned long long>(missed_klasses),
                first_missed_klass.empty() ? "" : " (first: ",
                first_missed_klass.c_str(),
                first_missed_klass.empty() ? "" : ")",
                static_cast<unsigned long long>(missed_objects),
                rr.escape_hatches);
            rep.add(v);
        }

        // Overfetch upper bound: what the static manifest would
        // prefetch beyond the recorded set. Informational -- an
        // imprecise manifest costs bytes, never correctness.
        std::set<vm::KlassId> recorded_klasses(plan.klasses.begin(),
                                               plan.klasses.end());
        std::set<vm::Ref> recorded_objects(plan.objects.begin(),
                                           plan.objects.end());
        uint64_t over_klasses = 0, over_objects = 0;
        uint64_t over_bytes = 0;
        for (vm::KlassId k : manifest_klasses) {
            if (!recorded_klasses.count(k)) {
                ++over_klasses;
                over_bytes += program.klass(k).code_bytes;
            }
        }
        for (vm::Ref r : manifest_objects) {
            if (!recorded_objects.count(r)) {
                ++over_objects;
                over_bytes += bed.server().heap().header(r).size;
            }
        }

        Finding f;
        f.kind = "manifest";
        f.program = app;
        f.method = qname;
        f.klass = "manifest-coverage";
        f.severity = "info";
        f.message = strprintf(
            "%s: static manifest %zu klass(es) / %zu object(s) "
            "covers recorded %zu/%zu; overfetch upper bound %llu "
            "klass(es) + %llu object(s) (~%llu B); %u escape "
            "hatch(es), %u cone expansion(s)",
            qname.c_str(), manifest_klasses.size(),
            manifest_objects.size(), plan.klasses.size(),
            plan.objects.size(),
            static_cast<unsigned long long>(over_klasses),
            static_cast<unsigned long long>(over_objects),
            static_cast<unsigned long long>(over_bytes),
            rr.escape_hatches, rr.cone_expansions);
        rep.add(f);
    }
}

/**
 * --seed-unreachable: build a synthetic program whose static slot
 * publishes an object that *violates* its TypeHint (a klass the
 * hint chain never names), so a field path the handler dynamically
 * reads is invisible to the reachability analysis -- with zero
 * escape hatches. Then run the handler for real and check the
 * recorded reads against the static footprint: the pass must report
 * the escape as an error. If it reports nothing, the checker has
 * lost its teeth (and CI's negated invocation fails).
 */
void
manifestSeedCheck(Reporter &rep)
{
    vm::Program program;
    vm::Klass leaf;
    leaf.name = "ManifestLeaf";
    leaf.fields = {"v"};
    vm::KlassId leaf_id = program.addKlass(leaf);
    vm::Klass decl;
    decl.name = "ManifestDecl";
    decl.fields = {"x"};
    vm::KlassId decl_id = program.addKlass(decl);
    program.hintField(decl_id, 0, leaf_id);
    vm::Klass hidden;
    hidden.name = "ManifestHidden";
    hidden.fields = {"x"};
    vm::KlassId hidden_id = program.addKlass(hidden);
    vm::Klass seed;
    seed.name = "ManifestSeed";
    seed.statics = {"slot"};
    vm::KlassId seed_id = program.addKlass(seed);
    // The lie: the slot is declared ManifestDecl but setup stores a
    // ManifestHidden.
    program.hintStatic(seed_id, 0, decl_id);

    vm::CodeBuilder s(program, seed_id, "manifestSeedSetup", 0);
    s.locals(2);
    s.newObj(leaf_id).store(0);
    s.load(0).pushI(7).putField(0);
    s.newObj(hidden_id).store(1);
    s.load(1).load(0).putField(0);
    s.load(1).putStatic(seed_id, 0);
    s.pushNil().ret();
    vm::MethodId setup = s.build();

    vm::CodeBuilder h(program, seed_id, "manifestSeedHandler", 1);
    h.locals(2);
    h.getStatic(seed_id, 0).store(1);
    h.load(1).getField(0).store(2);
    h.load(2).getField(0).ret();
    vm::MethodId handler = h.build();

    vm::ProgramAnalysis pa(program);
    vm::ReachabilityAnalysis reach(program, pa);
    vm::ReachReport rr = reach.analyzeRoot(handler);
    std::set<vm::KlassId> closure(rr.klasses.begin(),
                                  rr.klasses.end());

    vm::NativeRegistry natives;
    vm::Heap heap(program, 1 << 16, 1 << 20);
    vm::VmContext ctx(program, natives, heap, vm::VmConfig{});
    ctx.loadAll();
    auto drive = [](vm::Interpreter &interp) {
        while (interp.running()) {
            vm::Suspend sus = interp.run();
            if (sus.kind == vm::Suspend::Kind::Done)
                break;
            if (sus.kind != vm::Suspend::Kind::Quantum)
                throw std::runtime_error(
                    "seed program suspended unexpectedly");
        }
    };
    vm::Interpreter setup_interp(ctx);
    setup_interp.start(setup, {});
    drive(setup_interp);

    std::vector<vm::Ref> manifest = reach.resolveFootprint(rr, ctx);
    std::set<vm::Ref> manifest_set(manifest.begin(),
                                   manifest.end());

    // The soundness check covers field reads too, so this run opts
    // into recording them; the server's profiling phase does not.
    vm::Interpreter run(ctx);
    run.enableRecording(true, /*field_reads=*/true);
    run.start(handler, {vm::Value::ofInt(0)});
    drive(run);

    uint64_t misses = 0;
    auto miss = [&](const std::string &what) {
        ++misses;
        Finding f;
        f.kind = "manifest";
        f.program = "seed-unreachable";
        f.method = program.qualifiedName(handler);
        f.klass = "manifest-unsound";
        f.severity = "error";
        f.message = what + strprintf(" (%u escape hatch(es))",
                                     rr.escape_hatches);
        rep.add(f);
    };
    for (const auto &[k, idx] : run.recordedFieldReads()) {
        if (!rr.footprint.containsField(k, idx))
            miss(strprintf("dynamic field read %s.%s escapes the "
                           "static footprint",
                           program.klass(k).name.c_str(),
                           program.klass(k).fields[idx].c_str()));
    }
    for (const auto &st : run.recordedStatics()) {
        if (!rr.footprint.statics.count(st))
            miss(strprintf("dynamic static read %s[%u] escapes the "
                           "static footprint",
                           program.klass(st.first).name.c_str(),
                           st.second));
    }
    for (vm::KlassId k : run.recordedKlasses()) {
        if (!closure.count(k))
            miss(strprintf("dynamically required klass %s escapes "
                           "the closure",
                           program.klass(k).name.c_str()));
    }

    if (misses == 0) {
        Finding f;
        f.kind = "manifest";
        f.program = "seed-unreachable";
        f.klass = "checker-toothless";
        f.severity = "warning";
        f.message =
            "seeded hint-violating program produced no soundness "
            "finding; the manifest checker is broken";
        rep.add(f);
    }
}

/**
 * --seed-race: inject a synthetic handler with a textbook race --
 * an object published through a static slot whose field is written
 * without any monitor -- so CI can assert the race pass actually
 * fires (a detector that never fires also never fails).
 */
void
seedRacyHandler(vm::Program &program)
{
    vm::Klass box;
    box.name = "RacyBox";
    box.fields = {"value"};
    vm::KlassId box_id = program.addKlass(box);

    vm::Klass seed;
    seed.name = "RacySeed";
    seed.statics = {"box"};
    vm::KlassId seed_id = program.addKlass(seed);
    program.hintStatic(seed_id, 0, box_id);

    using vm::Op;
    vm::Method handler;
    handler.name = "racyHandler";
    handler.num_args = 1; // request argument, like real handlers
    handler.num_locals = 1;
    handler.annotations.push_back({"RequestMapping"});
    handler.code = {
        {Op::GetStatic, seed_id, 0},  // the shared box
        {Op::PushI, 7, 0},
        {Op::PutField, 0, 0},         // box.value = 7, no monitor
        {Op::PushNil, 0, 0},
        {Op::Ret, 0, 0},
    };
    program.addMethod(seed_id, std::move(handler));
}

int
runLint(bool strict, bool quiet, bool json,
        const std::string &only_pass, bool seed_race,
        bool seed_unreachable)
{
    auto enabled = [&](const char *name) {
        return only_pass.empty() || only_pass == name;
    };

    vm::VerifyOptions options;
    options.strict_types = strict;

    Reporter rep;
    rep.json = json;
    rep.quiet = quiet;

    // The same program construction the experiment harness performs.
    vm::Program program;
    vm::NativeRegistry natives;
    apps::Framework framework(program, natives,
                              apps::FrameworkOptions{});
    apps::ThumbnailApp thumbnail(framework);
    apps::PybbsApp pybbs(framework);
    apps::BlogApp blog(framework);
    const apps::WebApp *all_apps[] = {&thumbnail, &pybbs, &blog};
    if (seed_race)
        seedRacyHandler(program);

    if (!json)
        std::printf("hivelint: %zu klasses, %zu methods%s%s%s\n",
                    program.klassCount(), program.methodCount(),
                    strict ? " (strict typing)" : "",
                    seed_race ? " (racy seed injected)" : "",
                    only_pass.empty()
                        ? ""
                        : strprintf(" (pass %s only)",
                                    only_pass.c_str())
                              .c_str());

    // ---- Pass 1: bytecode verification --------------------------
    if (enabled("verify")) {
        vm::VerifyResult result =
            vm::Verifier(program, options).verifyAll();
        for (const vm::Diagnostic &d : result.diagnostics) {
            Finding f;
            f.kind = "verify";
            f.program = "builtin";
            f.method = program.qualifiedName(d.method);
            f.pc = d.pc;
            f.klass = vm::diagCodeName(d.code);
            f.severity = severityName(d.severity);
            f.message = toString(d, program);
            rep.add(f);
        }
    }

    // ---- Passes 2+3+6 share the interprocedural framework -------
    if (enabled("offload") || enabled("lock-order") ||
        enabled("race")) {
        vm::OffloadAnalysis analysis(program);

        if (enabled("offload")) {
            for (const apps::WebApp *app : all_apps)
                for (vm::MethodId root :
                     {app->entry(), app->handler()})
                    reportRoot(rep, program, analysis, app->name(),
                               root);
            // Annotated handlers the apps did not expose explicitly
            // would be invisible above; sweep the candidate filter
            // too.
            for (vm::MethodId root :
                 program.methodsWithAnnotation("RequestMapping"))
                reportRoot(rep, program, analysis, "annotated",
                           root);
        }

        // ---- Pass 3b: lock-order cycles -------------------------
        if (enabled("lock-order")) {
            for (const vm::LockCycle &cycle :
                 analysis.analysis().lockCycles()) {
                Finding f;
                f.kind = "lock-order";
                f.program = "builtin";
                f.klass = "deadlock-cycle";
                f.severity = "warning";
                f.message = cycle.describe(program);
                rep.add(f);
            }
        }

        // ---- Pass 5: lockset race detection ---------------------
        if (enabled("race"))
            racePass(rep, program, analysis.analysis(), strict);
    }

    // ---- Pass 4: snapshot coverage ------------------------------
    if (enabled("snapshot"))
        for (harness::AppKind kind :
             {harness::AppKind::Thumbnail, harness::AppKind::Pybbs,
              harness::AppKind::Blog})
            snapshotPass(rep, kind);

    // ---- Pass 6: manifest soundness -----------------------------
    if (enabled("manifest")) {
        if (seed_unreachable) {
            // Self-test only: the synthetic hint-violating program
            // replaces the app drills, so the run's exit status
            // reflects the checker catching (or missing) the seed.
            manifestSeedCheck(rep);
        } else {
            for (harness::AppKind kind :
                 {harness::AppKind::Thumbnail,
                  harness::AppKind::Pybbs, harness::AppKind::Blog})
                manifestPass(rep, kind, strict);
        }
    }

    rep.emit();
    if (!json)
        std::printf("hivelint: %zu error(s), %zu warning(s)\n",
                    rep.errors, rep.warnings);
    return rep.errors == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool strict = false;
    bool quiet = false;
    bool json = false;
    bool seed_race = false;
    bool seed_unreachable = false;
    std::string only_pass;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--strict") == 0) {
            strict = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--seed-race") == 0) {
            seed_race = true;
        } else if (std::strcmp(argv[i], "--seed-unreachable") == 0) {
            seed_unreachable = true;
        } else if (std::strcmp(argv[i], "--pass") == 0 &&
                   i + 1 < argc) {
            only_pass = argv[++i];
            if (!selectablePass(only_pass)) {
                std::fprintf(stderr,
                             "hivelint: unknown pass '%s' (one of: "
                             "%s)\n",
                             only_pass.c_str(),
                             selectablePasses().c_str());
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: hivelint [--strict] [--quiet] "
                         "[--json] [--pass <name>] [--seed-race] "
                         "[--seed-unreachable]\n");
            return 2;
        }
    }

    try {
        return runLint(strict, quiet, json, only_pass, seed_race,
                       seed_unreachable);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hivelint: internal failure: %s\n",
                     e.what());
        return 2;
    }
}
