#include "apps/blog.h"

namespace beehive::apps {

using vm::CodeBuilder;
using vm::Value;

namespace {

enum CacheStatics : uint32_t
{
    kCacheLocks = 0,
    kCacheEntries = 1,
};

constexpr int kCacheEntryCount = 48;

enum CacheFields : uint32_t
{
    kCacheHits = 0,
    kCacheLast = 1,
};

} // namespace

BlogApp::BlogApp(Framework &framework) : fw_(framework)
{
    vm::Program &program = fw_.program();

    vm::Klass cache;
    cache.name = "blog/ArchiveCache";
    cache.fields = {"hits", "last"};
    cache.statics = {"locks", "entries"};
    cache.code_bytes = 1800;
    cache_k_ = program.addKlass(cache);
    program.hintStatic(cache_k_, kCacheLocks, fw_.arrayKlass(),
                       cache_k_);
    program.hintStatic(cache_k_, kCacheEntries, fw_.arrayKlass(),
                       cache_k_);

    int64_t posts = fw_.tableId("posts");

    // archive(request_id) -- the annotated candidate root.
    CodeBuilder b(program, cache_k_, "archive", 1);
    b.annotate("RequestMapping");
    b.locals(5); // 1: conn, 2-3: scratch, 4: loop
    fw_.emitConfigWalk(b, 340, 2);
    fw_.emitNativeMix(b, 120000, 9000, 120, 2);
    fw_.emitGetConnection(b, 0);
    b.store(1);
    // The archive page: several large scans over the posts table
    // (month buckets) plus a few point lookups.
    for (int s = 0; s < kScans; ++s) {
        b.load(1).pushI(posts)
            .load(0).pushI(s * 311).add().pushI(kPosts / 2).mod()
            .pushI(kScanRows)
            .call(fw_.dbScan()).popv();
        b.compute(2600000); // month-bucket aggregation
    }
    for (int g = 0; g < kGets; ++g) {
        b.load(1).pushI(posts)
            .load(0).pushI(g * 97).add().pushI(kPosts).mod()
            .call(fw_.dbGet()).popv();
        b.compute(1900000); // sidebar rendering per post
    }
    b.load(1).pushI(posts).call(fw_.dbCount()).popv();
    // Cache bookkeeping under monitors: each lock guards a stripe
    // of archive-cache entries that the request refreshes.
    for (int i = 0; i < kLocks; ++i) {
        b.getStatic(cache_k_, kCacheLocks).pushI(i).aload().store(3);
        b.load(3).monitorEnter();
        b.load(3).load(3).getField(kCacheHits).pushI(1).add()
            .putField(kCacheHits);
        b.load(3).load(0).putField(kCacheLast);
        for (int j = 0; j < 3; ++j) {
            b.getStatic(cache_k_, kCacheEntries)
                .load(0).pushI(i * 3 + j).add()
                .pushI(kCacheEntryCount).mod()
                .aload().store(4);
            b.load(4).load(0).putField(kCacheLast);
        }
        b.load(3).monitorExit();
    }
    // Page rendering.
    b.compute(3000000);
    b.pushI(200).ret();
    handler_ = b.build();

    entry_ = fw_.wrapWithInterceptors("blog", handler_);
}

void
BlogApp::seedDatabase(db::RecordStore &store) const
{
    // Each row's fields are listed in key order, as records take
    // them; the labels are short enough to stay off the heap.
    const std::string body(600, 'b');
    std::vector<db::RecordRef> posts;
    posts.reserve(kPosts);
    for (int i = 0; i < kPosts; ++i) {
        const std::string title = "post-" + std::to_string(i);
        const db::Field fields[] = {{"body", body}, {"title", title}};
        posts.push_back(db::Record::make(i, fields));
    }
    store.load("posts", std::move(posts));
}

void
BlogApp::installOnServer(core::BeeHiveServer &server) const
{
    vm::Heap &heap = server.heap();
    vm::Ref locks = heap.allocArray(fw_.arrayKlass(), kLocks, true);
    for (int i = 0; i < kLocks; ++i) {
        vm::Ref lock = heap.allocPlain(cache_k_, true);
        heap.setField(lock, kCacheHits, Value::ofInt(0));
        heap.setField(lock, kCacheLast, Value::ofInt(0));
        heap.setElem(locks, static_cast<uint32_t>(i),
                     Value::ofRef(lock));
    }
    server.context().setStatic(cache_k_, kCacheLocks,
                               Value::ofRef(locks));

    vm::Ref entries =
        heap.allocArray(fw_.arrayKlass(), kCacheEntryCount, true);
    for (int i = 0; i < kCacheEntryCount; ++i) {
        vm::Ref entry = heap.allocPlain(cache_k_, true);
        heap.setField(entry, kCacheHits, Value::ofInt(i));
        heap.setElem(entries, static_cast<uint32_t>(i),
                     Value::ofRef(entry));
    }
    server.context().setStatic(cache_k_, kCacheEntries,
                               Value::ofRef(entries));
}

} // namespace beehive::apps
