/**
 * @file
 * Interprocedural-analysis framework tests (vm/analysis.h).
 *
 * Synthetic programs pin the three client analyses one behaviour at
 * a time -- monitor elision upgrading a root's offload class, ABBA
 * lock-order cycles (intra- and interprocedural), reentrant locking
 * staying cycle-free -- and golden tests pin the capture sets and
 * effect summaries of every built-in endpoint: the Config payload
 * field, for one, is provably never read.
 */

#include <gtest/gtest.h>

#include "apps/blog.h"
#include "apps/framework.h"
#include "apps/pybbs.h"
#include "apps/thumbnail.h"
#include "vm/analysis.h"
#include "vm/offload_analysis.h"

namespace beehive {
namespace {

using vm::CaptureSet;
using vm::EffectSummary;
using vm::Instr;
using vm::KlassId;
using vm::MethodId;
using vm::OffloadAnalysis;
using vm::OffloadClass;
using vm::Op;
using vm::Program;
using vm::ProgramAnalysis;

/** A tiny program with one klass to hang hand-written methods on. */
struct SynthProgram
{
    Program p;
    KlassId k;

    SynthProgram()
    {
        vm::Klass kl;
        kl.name = "S";
        kl.fields = {"f0", "f1"};
        kl.statics = {"s0", "s1"};
        k = p.addKlass(kl);
    }

    MethodId
    method(const std::string &name, std::vector<Instr> code,
           uint16_t num_args = 0, uint16_t num_locals = 0)
    {
        vm::Method m;
        m.name = name;
        m.num_args = num_args;
        m.num_locals = std::max(num_args, num_locals);
        m.code = std::move(code);
        return p.addMethod(k, m);
    }
};

Instr
ins(Op op, int64_t a = 0, int64_t b = 0)
{
    return Instr{op, a, b};
}

// ---- Escape analysis: monitor elision -----------------------------

TEST(AnalysisTest, FreshMonitorElisionUpgradesRoot)
{
    // A monitor guarding a freshly allocated, never-escaping object
    // cannot be contended across endpoints. The coarse PR 1 buckets
    // classified ANY MonitorEnter as needs-fallback; the escape
    // analysis proves this one local and the root offload-safe.
    SynthProgram t;
    MethodId root = t.method("root",
                             {
                                 ins(Op::New, t.k),
                                 ins(Op::MonitorEnter),
                                 ins(Op::New, t.k),
                                 ins(Op::MonitorExit),
                                 ins(Op::PushI, 0),
                                 ins(Op::Ret),
                             });
    OffloadAnalysis analysis(t.p);
    EXPECT_EQ(analysis.classOf(root), OffloadClass::OffloadSafe);
    EXPECT_EQ(
        analysis.analysis().methodSummary(root).monitors_elided, 1u);
    EXPECT_TRUE(analysis.analysis().methodSummary(root).locks.empty());
}

TEST(AnalysisTest, SharedStaticMonitorStillNeedsFallback)
{
    // The same monitor shape on an object loaded from a static is
    // observable by other endpoints: no elision, fallback demanded.
    SynthProgram t;
    MethodId root = t.method("root",
                             {
                                 ins(Op::GetStatic, t.k, 0),
                                 ins(Op::MonitorEnter),
                                 ins(Op::GetStatic, t.k, 0),
                                 ins(Op::MonitorExit),
                                 ins(Op::PushI, 0),
                                 ins(Op::Ret),
                             });
    OffloadAnalysis analysis(t.p);
    EXPECT_EQ(analysis.classOf(root), OffloadClass::NeedsFallback);
    EXPECT_EQ(analysis.analysis().methodSummary(root).locks.size(),
              1u);
}

TEST(AnalysisTest, EscapedFreshObjectMonitorIsNotElided)
{
    // The fresh object is published through a static before its
    // monitor is taken: another endpoint can reach it, so the
    // monitor must keep its synchronization fallback.
    SynthProgram t;
    MethodId root = t.method("root",
                             {
                                 ins(Op::New, t.k),
                                 ins(Op::PutStatic, t.k, 0),
                                 ins(Op::GetStatic, t.k, 0),
                                 ins(Op::MonitorEnter),
                                 ins(Op::GetStatic, t.k, 0),
                                 ins(Op::MonitorExit),
                                 ins(Op::PushI, 0),
                                 ins(Op::Ret),
                             });
    OffloadAnalysis analysis(t.p);
    EXPECT_EQ(analysis.classOf(root), OffloadClass::NeedsFallback);
    EXPECT_EQ(
        analysis.analysis().methodSummary(root).monitors_elided, 0u);
}

// ---- Lock-order analysis ------------------------------------------

TEST(AnalysisTest, AbbaLockOrderCycleDetected)
{
    // mA nests s1 inside s0; mB nests s0 inside s1. Classic ABBA.
    SynthProgram t;
    t.method("mA", {
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorEnter),
                       ins(Op::GetStatic, t.k, 1),
                       ins(Op::MonitorEnter),
                       ins(Op::GetStatic, t.k, 1),
                       ins(Op::MonitorExit),
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorExit),
                       ins(Op::PushI, 0),
                       ins(Op::Ret),
                   });
    t.method("mB", {
                       ins(Op::GetStatic, t.k, 1),
                       ins(Op::MonitorEnter),
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorEnter),
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorExit),
                       ins(Op::GetStatic, t.k, 1),
                       ins(Op::MonitorExit),
                       ins(Op::PushI, 0),
                       ins(Op::Ret),
                   });
    ProgramAnalysis analysis(t.p);
    ASSERT_FALSE(analysis.lockCycles().empty());
    std::string described =
        analysis.lockCycles().front().describe(t.p);
    EXPECT_NE(described.find("potential deadlock cycle"),
              std::string::npos)
        << described;
}

TEST(AnalysisTest, InterproceduralLockCycleDetected)
{
    // The inversion only exists across call edges: mA holds s0 and
    // calls a method locking s1; mB holds s1 and calls a method
    // locking s0.
    SynthProgram t;
    MethodId lock_a = t.method("lockA", {
                                            ins(Op::GetStatic, t.k, 0),
                                            ins(Op::MonitorEnter),
                                            ins(Op::GetStatic, t.k, 0),
                                            ins(Op::MonitorExit),
                                            ins(Op::PushI, 0),
                                            ins(Op::Ret),
                                        });
    MethodId lock_b = t.method("lockB", {
                                            ins(Op::GetStatic, t.k, 1),
                                            ins(Op::MonitorEnter),
                                            ins(Op::GetStatic, t.k, 1),
                                            ins(Op::MonitorExit),
                                            ins(Op::PushI, 0),
                                            ins(Op::Ret),
                                        });
    t.method("mA", {
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorEnter),
                       ins(Op::Call, lock_b),
                       ins(Op::Pop),
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorExit),
                       ins(Op::PushI, 0),
                       ins(Op::Ret),
                   });
    t.method("mB", {
                       ins(Op::GetStatic, t.k, 1),
                       ins(Op::MonitorEnter),
                       ins(Op::Call, lock_a),
                       ins(Op::Pop),
                       ins(Op::GetStatic, t.k, 1),
                       ins(Op::MonitorExit),
                       ins(Op::PushI, 0),
                       ins(Op::Ret),
                   });
    ProgramAnalysis analysis(t.p);
    EXPECT_FALSE(analysis.lockCycles().empty());
}

TEST(AnalysisTest, ReentrantStaticLockIsNotACycle)
{
    // Re-acquiring the same static's monitor is reentrant locking,
    // not an inversion: no self-edge, no cycle.
    SynthProgram t;
    t.method("mR", {
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorEnter),
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorEnter),
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorExit),
                       ins(Op::GetStatic, t.k, 0),
                       ins(Op::MonitorExit),
                       ins(Op::PushI, 0),
                       ins(Op::Ret),
                   });
    ProgramAnalysis analysis(t.p);
    EXPECT_TRUE(analysis.lockCycles().empty());
}

// ---- Golden results over the built-in workload programs -----------

/** Framework + all three evaluation apps in one Program. */
struct BuiltinPrograms
{
    Program program;
    vm::NativeRegistry natives;
    apps::Framework framework;
    apps::ThumbnailApp thumbnail;
    apps::PybbsApp pybbs;
    apps::BlogApp blog;

    BuiltinPrograms()
        : framework(program, natives, apps::FrameworkOptions{}),
          thumbnail(framework), pybbs(framework), blog(framework)
    {
    }
};

TEST(AnalysisGoldenTest, BuiltinLockGraphIsAcyclic)
{
    BuiltinPrograms b;
    ProgramAnalysis analysis(b.program);
    EXPECT_TRUE(analysis.lockCycles().empty());
}

TEST(AnalysisGoldenTest, CaptureExcludesUnreadPayloadField)
{
    // No bytecode anywhere reads Config.payload (the config walk
    // touches only next and value), so every endpoint's capture set
    // excludes it.
    BuiltinPrograms b;
    KlassId config = b.framework.configKlass();
    OffloadAnalysis analysis(b.program);
    for (const apps::WebApp *app :
         {static_cast<const apps::WebApp *>(&b.thumbnail),
          static_cast<const apps::WebApp *>(&b.pybbs),
          static_cast<const apps::WebApp *>(&b.blog)}) {
        for (MethodId root : {app->entry(), app->handler()}) {
            CaptureSet capture = analysis.captureForRoot(root);
            SCOPED_TRACE(b.program.qualifiedName(root));
            EXPECT_FALSE(capture.all_fields);
            EXPECT_TRUE(capture.any_klass_fields.empty());
            EXPECT_TRUE(capture.containsField(
                config, apps::Framework::kCfgNext));
            EXPECT_TRUE(capture.containsField(
                config, apps::Framework::kCfgValue));
            EXPECT_FALSE(capture.containsField(
                config, apps::Framework::kCfgPayload));
        }
    }
}

TEST(AnalysisGoldenTest, CaptureSetsPerEndpoint)
{
    BuiltinPrograms b;
    OffloadAnalysis analysis(b.program);
    KlassId ds = b.framework.dataSourceKlass();

    struct Gold
    {
        MethodId root;
        std::size_t statics;
        std::size_t field_facts;
    };
    const Gold golds[] = {
        {b.thumbnail.handler(), 4, 4},
        {b.pybbs.handler(), 5, 3},
        {b.blog.handler(), 5, 3},
    };
    for (const Gold &g : golds) {
        SCOPED_TRACE(b.program.qualifiedName(g.root));
        CaptureSet capture = analysis.captureForRoot(g.root);
        EXPECT_EQ(capture.statics.size(), g.statics);
        EXPECT_EQ(capture.fieldFactCount(), g.field_facts);
        // invoke0 (Method) and the socket natives (SocketImpl) read
        // their owners' fields from C++.
        EXPECT_EQ(capture.full_klasses.size(), 2u);
        EXPECT_TRUE(capture.full_klasses.count(
            b.framework.methodKlass()));
        EXPECT_TRUE(capture.full_klasses.count(
            b.framework.socketKlass()));
        // Every handler reaches the connection pool, the reflective
        // Method object, and the config graph.
        EXPECT_TRUE(capture.statics.count(
            {ds, apps::Framework::kDsConnPool}));
        EXPECT_TRUE(capture.statics.count(
            {ds, apps::Framework::kDsMethodObj}));
        EXPECT_TRUE(capture.statics.count(
            {ds, apps::Framework::kDsConfigRoot}));
    }
}

TEST(AnalysisGoldenTest, EffectSummariesPerEndpoint)
{
    BuiltinPrograms b;
    ProgramAnalysis analysis(b.program);

    struct Gold
    {
        MethodId root;
        std::size_t statics_read;
    };
    const Gold golds[] = {
        {b.thumbnail.handler(), 4},
        {b.pybbs.handler(), 5},
        {b.blog.handler(), 5},
    };
    for (const Gold &g : golds) {
        SCOPED_TRACE(b.program.qualifiedName(g.root));
        const EffectSummary &sum = analysis.transitiveSummary(g.root);
        EXPECT_EQ(sum.statics_read.size(), g.statics_read);
        EXPECT_TRUE(sum.statics_written.empty());
        // Each handler serializes on exactly one shared monitor
        // (stats object / lock-array element / cache entry).
        EXPECT_EQ(sum.locks.size(), 1u);
        EXPECT_EQ(sum.monitors_elided, 0u);
        EXPECT_FALSE(sum.unresolved_virtual);
    }
}

} // namespace
} // namespace beehive
