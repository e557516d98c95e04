/**
 * @file
 * Unit tests for the mini web framework and the three evaluation
 * applications.
 */

#include <gtest/gtest.h>

#include "apps/blog.h"
#include "apps/framework.h"
#include "apps/pybbs.h"
#include "apps/thumbnail.h"
#include "support/strutil.h"
#include "vm/interpreter.h"

namespace beehive::apps {
namespace {

FrameworkOptions
tinyOptions()
{
    FrameworkOptions fw;
    fw.native_scale = 1000;
    fw.interceptor_depth = 3;
    fw.stub_variants = 4;
    fw.generated_klasses = 12;
    fw.config_objects = 30;
    fw.connection_pool = 2;
    return fw;
}

TEST(FrameworkTest, DefinesWellKnownKlasses)
{
    vm::Program program;
    vm::NativeRegistry natives;
    Framework fw(program, natives, tinyOptions());
    EXPECT_NE(fw.objectKlass(), vm::kNoKlass);
    EXPECT_NE(fw.bytesKlass(), vm::kNoKlass);
    EXPECT_NE(fw.socketKlass(), vm::kNoKlass);
    EXPECT_NE(fw.methodKlass(), vm::kNoKlass);
    EXPECT_EQ(program.findKlass("java/net/SocketImpl"),
              fw.socketKlass());
    // The generated wrapper pool exists.
    EXPECT_NE(program.findKlass("twig/Generated$0"), vm::kNoKlass);
    EXPECT_NE(program.findKlass("twig/Generated$11"), vm::kNoKlass);
    EXPECT_EQ(program.findKlass("twig/Generated$12"), vm::kNoKlass);
    // MethodInterceptor variants with intercept() methods.
    vm::KlassId stub = program.findKlass("twig/MethodInterceptor$2");
    ASSERT_NE(stub, vm::kNoKlass);
    EXPECT_NE(program.resolveVirtual(stub,
                                     program.internName("intercept")),
              vm::kNoMethod);
}

TEST(FrameworkTest, NativesCoverAllFourCategories)
{
    vm::Program program;
    vm::NativeRegistry natives;
    Framework fw(program, natives, tinyOptions());
    EXPECT_EQ(program.method(fw.arraycopy()).native_category,
              vm::NativeCategory::PureOnHeap);
    EXPECT_EQ(program.method(fw.invoke0()).native_category,
              vm::NativeCategory::HiddenState);
    EXPECT_EQ(program.method(fw.socketRead0()).native_category,
              vm::NativeCategory::Network);
    EXPECT_EQ(program.method(fw.currentThread()).native_category,
              vm::NativeCategory::Stateless);
}

TEST(FrameworkTest, TableIdsInternIntoStringPool)
{
    vm::Program program;
    vm::NativeRegistry natives;
    Framework fw(program, natives, tinyOptions());
    int64_t a = fw.tableId("topics");
    int64_t b = fw.tableId("topics");
    EXPECT_EQ(a, b);
    EXPECT_EQ(program.stringAt(static_cast<uint32_t>(a)), "topics");
}

TEST(FrameworkTest, InterceptorChainHasConfiguredDepth)
{
    vm::Program program;
    vm::NativeRegistry natives;
    FrameworkOptions opts = tinyOptions();
    opts.interceptor_depth = 5;
    Framework fw(program, natives, opts);

    vm::CodeBuilder h(program, fw.objectKlass(), "inner", 1);
    h.annotate("RequestMapping").load(0).ret();
    vm::MethodId handler = h.build();
    fw.wrapWithInterceptors("testapp", handler);
    // One interceptor klass per level was generated.
    for (int level = 1; level <= 5; ++level) {
        EXPECT_NE(program.findKlass("twig/testapp$Interceptor" +
                                    std::to_string(level)),
                  vm::kNoKlass)
            << level;
    }
    EXPECT_EQ(program.findKlass("twig/testapp$Interceptor6"),
              vm::kNoKlass);
}

/** Fixture that can actually execute framework bytecode. */
class FrameworkExecTest : public ::testing::Test
{
  protected:
    FrameworkExecTest() : fw(program, natives, tinyOptions()) {}

    /**
     * Create the VM context. Must run AFTER the test defined all
     * its klasses/methods (a VM loads a fixed program).
     */
    void
    makeCtx()
    {
        heap = std::make_unique<vm::Heap>(program, 1 << 20, 1 << 20);
        vm::VmConfig cfg;
        cfg.bytes_klass = fw.bytesKlass();
        cfg.array_klass = fw.arrayKlass();
        ctx = std::make_unique<vm::VmContext>(program, natives, *heap,
                                              cfg);
        ctx->loadAll();
        // Minimal DataSource statics for handlers that use them.
        vm::Ref method_obj = heap->allocPlain(fw.methodKlass(), true);
        ctx->setStatic(fw.dataSourceKlass(), Framework::kDsMethodObj,
                       vm::Value::ofRef(method_obj));
        // Config list of 5 nodes.
        vm::Ref head = vm::kNullRef;
        for (int i = 0; i < 5; ++i) {
            vm::Ref node = heap->allocPlain(fw.configKlass(), true);
            heap->setField(node, Framework::kCfgNext,
                           vm::Value::ofRef(head));
            heap->setField(node, Framework::kCfgValue,
                           vm::Value::ofInt(i));
            head = node;
        }
        ctx->setStatic(fw.dataSourceKlass(), Framework::kDsConfigRoot,
                       vm::Value::ofRef(head));
    }

    vm::Value
    execute(vm::MethodId m, std::vector<vm::Value> args)
    {
        vm::Interpreter interp(*ctx);
        interp.start(m, std::move(args));
        vm::Suspend s;
        do {
            s = interp.run();
        } while (s.kind == vm::Suspend::Kind::Quantum);
        EXPECT_EQ(s.kind, vm::Suspend::Kind::Done);
        return s.result;
    }

    vm::Program program;
    vm::NativeRegistry natives;
    Framework fw;
    std::unique_ptr<vm::Heap> heap;
    std::unique_ptr<vm::VmContext> ctx;
};

TEST_F(FrameworkExecTest, InterceptorChainDeliversToHandler)
{
    vm::CodeBuilder h(program, fw.objectKlass(), "double_it", 1);
    h.annotate("RequestMapping").load(0).pushI(2).mul().ret();
    vm::MethodId handler = h.build();
    vm::MethodId entry = fw.wrapWithInterceptors("chainapp", handler);
    makeCtx();
    EXPECT_EQ(execute(entry, {vm::Value::ofInt(21)}).asInt(), 42);
}

TEST_F(FrameworkExecTest, NativeMixExecutesScaledCounts)
{
    vm::CodeBuilder b(program, fw.objectKlass(), "mixer", 0);
    b.locals(2);
    fw.emitNativeMix(b, 5000, 2000, 1000, 1);
    b.pushI(0).ret();
    vm::MethodId m = b.build();
    makeCtx();
    ctx->resetNativeCounts();
    execute(m, {});
    // scale = 1000: 5 pure + 2 hidden + 1 stateless.
    EXPECT_EQ(ctx->nativeCount(vm::NativeCategory::PureOnHeap), 5u);
    EXPECT_EQ(ctx->nativeCount(vm::NativeCategory::HiddenState), 2u);
    EXPECT_EQ(ctx->nativeCount(vm::NativeCategory::Stateless), 1u);
}

TEST_F(FrameworkExecTest, ConfigWalkStopsAtListEnd)
{
    vm::CodeBuilder b(program, fw.objectKlass(), "walker", 0);
    b.locals(3); // the walk needs two scratch slots
    fw.emitConfigWalk(b, 100, 1); // asks for more than the 5 nodes
    b.pushI(7).ret();
    vm::MethodId m = b.build();
    makeCtx();
    EXPECT_EQ(execute(m, {}).asInt(), 7);
}

TEST(AppsTest, AllAppsDefineAnnotatedHandlers)
{
    vm::Program program;
    vm::NativeRegistry natives;
    Framework fw(program, natives, tinyOptions());
    ThumbnailApp thumbnail(fw);
    PybbsApp pybbs(fw);
    BlogApp blog(fw);

    for (const WebApp *app :
         {static_cast<const WebApp *>(&thumbnail),
          static_cast<const WebApp *>(&pybbs),
          static_cast<const WebApp *>(&blog)}) {
        EXPECT_TRUE(program.method(app->handler())
                        .hasAnnotation("RequestMapping"))
            << app->name();
        EXPECT_NE(app->entry(), app->handler()) << app->name();
    }
    // Census constants match the paper's Table 2.
    EXPECT_EQ(PybbsApp::kPureOnHeap, 226643);
    EXPECT_EQ(PybbsApp::kHiddenState, 34749);
    EXPECT_EQ(PybbsApp::kNetwork, 248);
    EXPECT_EQ(PybbsApp::kOthers, 415);
}

TEST(AppsTest, SeedsPopulateExpectedTables)
{
    vm::Program program;
    vm::NativeRegistry natives;
    Framework fw(program, natives, tinyOptions());
    ThumbnailApp thumbnail(fw);
    PybbsApp pybbs(fw);
    BlogApp blog(fw);

    db::RecordStore store;
    thumbnail.seedDatabase(store);
    pybbs.seedDatabase(store);
    blog.seedDatabase(store);
    EXPECT_EQ(store.tableSize("images"),
              static_cast<std::size_t>(ThumbnailApp::kImages));
    EXPECT_EQ(store.tableSize("users"),
              static_cast<std::size_t>(PybbsApp::kUsers));
    EXPECT_EQ(store.tableSize("topics"),
              static_cast<std::size_t>(PybbsApp::kTopics));
    EXPECT_EQ(store.tableSize("posts"),
              static_cast<std::size_t>(BlogApp::kPosts));
    EXPECT_TRUE(store.hasTable("comments"));
    EXPECT_TRUE(store.hasTable("thumbs"));
}

/**
 * The tables seeded the way the apps once seeded them: a db::Row per
 * row, its fields set in a std::map and its labels formatted by
 * strprintf, each stored as Record::make(row.id, row).
 */
void
seedThroughRows(db::RecordStore &store)
{
    auto load = [&](const std::string &table,
                    const std::vector<db::Row> &rows) {
        std::vector<db::RecordRef> records;
        for (const db::Row &row : rows)
            records.push_back(db::Record::make(row.id, row));
        store.load(table, std::move(records));
    };
    std::vector<db::Row> images;
    for (int i = 0; i < ThumbnailApp::kImages; ++i) {
        db::Row row;
        row.id = i;
        row.fields["image"] = std::string(2048, 'p');
        images.push_back(std::move(row));
    }
    load("images", images);
    store.createTable("thumbs");

    std::vector<db::Row> users;
    for (int i = 0; i < PybbsApp::kUsers; ++i) {
        db::Row row;
        row.id = i;
        row.fields["name"] = strprintf("user-%d", i);
        row.fields["bio"] = std::string(120, 'u');
        users.push_back(std::move(row));
    }
    load("users", users);
    std::vector<db::Row> topics;
    for (int i = 0; i < PybbsApp::kTopics; ++i) {
        db::Row row;
        row.id = i;
        row.fields["title"] = strprintf("topic-%d", i);
        row.fields["body"] = std::string(400, 't');
        topics.push_back(std::move(row));
    }
    load("topics", topics);
    store.createTable("comments");

    std::vector<db::Row> posts;
    for (int i = 0; i < BlogApp::kPosts; ++i) {
        db::Row row;
        row.id = i;
        row.fields["title"] = strprintf("post-%d", i);
        row.fields["body"] = std::string(600, 'b');
        posts.push_back(std::move(row));
    }
    load("posts", posts);
}

TEST(AppsTest, SeededRecordsMatchTheRowPath)
{
    vm::Program program;
    vm::NativeRegistry natives;
    Framework fw(program, natives, tinyOptions());
    ThumbnailApp thumbnail(fw);
    PybbsApp pybbs(fw);
    BlogApp blog(fw);

    db::RecordStore seeded, reference;
    thumbnail.seedDatabase(seeded);
    pybbs.seedDatabase(seeded);
    blog.seedDatabase(seeded);
    seedThroughRows(reference);
    for (const char *table : {"images", "thumbs", "users", "topics",
                              "comments", "posts"}) {
        SCOPED_TRACE(table);
        ASSERT_TRUE(seeded.hasTable(table));
        ASSERT_EQ(seeded.tableSize(table), reference.tableSize(table));
        db::Request scan{db::OpKind::Scan, table};
        scan.limit = static_cast<int64_t>(reference.tableSize(table));
        const db::Response got = seeded.execute(scan);
        const db::Response want = reference.execute(scan);
        ASSERT_EQ(got.rows.size(), want.rows.size());
        for (std::size_t i = 0; i < got.rows.size(); ++i) {
            EXPECT_EQ(got.rows[i]->id(), want.rows[i]->id()) << i;
            EXPECT_EQ(got.rows[i]->wire(), want.rows[i]->wire()) << i;
            EXPECT_EQ(got.rows[i]->wireSize(), want.rows[i]->wireSize())
                << i;
        }
        EXPECT_EQ(got.wireSize(), want.wireSize());
    }
}

TEST(AppsTest, ThumbnailUsesBiggerLambda)
{
    vm::Program program;
    vm::NativeRegistry natives;
    Framework fw(program, natives, tinyOptions());
    ThumbnailApp thumbnail(fw);
    PybbsApp pybbs(fw);
    EXPECT_DOUBLE_EQ(thumbnail.lambdaType().memory_gb, 2.0);
    EXPECT_DOUBLE_EQ(pybbs.lambdaType().memory_gb, 1.0);
}

} // namespace
} // namespace beehive::apps
