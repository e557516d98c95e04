#include "apps/pybbs.h"

namespace beehive::apps {

using vm::CodeBuilder;
using vm::Value;

namespace {

/** SharedState statics layout. */
enum SharedStatics : uint32_t
{
    kShLocks = 0,  //!< array of lock objects
    kShCache = 1,  //!< array of hot topic-cache objects
};

/** Lock/cache object fields. */
enum SharedFields : uint32_t
{
    kShHits = 0,
    kShLast = 1,
};

constexpr int kCacheObjects = 64;

} // namespace

PybbsApp::PybbsApp(Framework &framework) : fw_(framework)
{
    vm::Program &program = fw_.program();

    vm::Klass shared;
    shared.name = "pybbs/SharedState";
    shared.fields = {"hits", "last"};
    shared.statics = {"locks", "cache"};
    shared.code_bytes = 2100;
    shared_k_ = program.addKlass(shared);
    program.hintStatic(shared_k_, kShLocks, fw_.arrayKlass(),
                       shared_k_);
    program.hintStatic(shared_k_, kShCache, fw_.arrayKlass(),
                       shared_k_);

    int64_t users = fw_.tableId("users");
    int64_t topics = fw_.tableId("topics");
    int64_t comments = fw_.tableId("comments");

    // comment(request_id) -- the annotated candidate root.
    CodeBuilder b(program, shared_k_, "comment", 1);
    b.annotate("RequestMapping");
    b.locals(5); // 1: conn, 2-3: scratch, 4: loop, 5: lock
    // Framework configuration access: pages in the config graph on
    // a cold function (the dominant shadow-phase data fetches).
    fw_.emitConfigWalk(b, 1500, 2);
    // Table 2 native mix.
    fw_.emitNativeMix(b, kPureOnHeap, kHiddenState, kOthers, 2);
    fw_.emitGetConnection(b, 0);
    b.store(1);
    // Socket bookkeeping writes beyond the DB rounds: together with
    // 80 write+read rounds this reaches the 248 network-native
    // census.
    {
        auto top = b.newLabel(), done = b.newLabel();
        b.pushI(kNetwork - 2 * kDbRounds).store(4);
        b.bind(top);
        b.load(4).pushI(0).cmpLe().jnz(done);
        b.load(1).pushI(0).pushI(0).call(fw_.socketWrite0()).popv();
        b.load(4).pushI(1).sub().store(4);
        b.jmp(top);
        b.bind(done);
    }
    // 78 read rounds: users/topics/comments lookups keyed off the
    // request id (ORM lazily walking relations).
    {
        auto top = b.newLabel(), done = b.newLabel();
        b.pushI(kDbRounds - 2).store(4);
        b.bind(top);
        b.load(4).pushI(0).cmpLe().jnz(done);
        // table alternates by loop index parity; key mixes id+i.
        auto odd = b.newLabel(), join = b.newLabel();
        b.load(4).pushI(2).mod().jnz(odd);
        b.load(1).pushI(users)
            .load(0).load(4).add().pushI(kUsers).mod()
            .call(fw_.dbGet()).popv();
        b.jmp(join);
        b.bind(odd);
        b.load(1).pushI(topics)
            .load(0).load(4).mul().pushI(kTopics).mod()
            .call(fw_.dbGet()).popv();
        b.bind(join);
        // ORM entity hydration + template fragment per round.
        b.compute(200000);
        b.load(4).pushI(1).sub().store(4);
        b.jmp(top);
        b.bind(done);
    }
    // Insert the comment, then update its topic row.
    b.load(1).pushI(comments).load(0).pushI(180)
        .call(fw_.dbPut()).popv();
    b.load(1).pushI(topics).load(0).pushI(kTopics).mod().pushI(96)
        .call(fw_.dbPut()).popv();
    // Shared-state updates under monitors: seven locks protecting
    // forum counters and the hot topic cache.
    for (int i = 0; i < kLocks; ++i) {
        b.getStatic(shared_k_, kShLocks).pushI(i).aload().store(5);
        b.load(5).monitorEnter();
        b.load(5).load(5).getField(kShHits).pushI(1).add()
            .putField(kShHits);
        b.load(5).load(0).putField(kShLast);
        // Touch a few hot cache entries while holding the lock.
        for (int j = 0; j < 4; ++j) {
            b.getStatic(shared_k_, kShCache)
                .load(0).pushI(i * 4 + j).add()
                .pushI(kCacheObjects).mod()
                .aload().store(2);
            b.load(2).load(0).putField(kShLast);
        }
        b.load(5).monitorExit();
    }
    // Rendering/templating computation.
    b.compute(6000000);
    b.pushI(200).ret();
    handler_ = b.build();

    entry_ = fw_.wrapWithInterceptors("pybbs", handler_);
}

void
PybbsApp::seedDatabase(db::RecordStore &store) const
{
    // Each row's fields are listed in key order, as records take
    // them; the labels are short enough to stay off the heap.
    const std::string bio(120, 'u');
    std::vector<db::RecordRef> users;
    users.reserve(kUsers);
    for (int i = 0; i < kUsers; ++i) {
        const std::string name = "user-" + std::to_string(i);
        const db::Field fields[] = {{"bio", bio}, {"name", name}};
        users.push_back(db::Record::make(i, fields));
    }
    store.load("users", std::move(users));

    const std::string body(400, 't');
    std::vector<db::RecordRef> topics;
    topics.reserve(kTopics);
    for (int i = 0; i < kTopics; ++i) {
        const std::string title = "topic-" + std::to_string(i);
        const db::Field fields[] = {{"body", body}, {"title", title}};
        topics.push_back(db::Record::make(i, fields));
    }
    store.load("topics", std::move(topics));
    store.createTable("comments");
}

void
PybbsApp::installOnServer(core::BeeHiveServer &server) const
{
    vm::Heap &heap = server.heap();
    vm::VmContext &ctx = server.context();

    vm::Ref locks = heap.allocArray(fw_.arrayKlass(), kLocks, true);
    for (int i = 0; i < kLocks; ++i) {
        vm::Ref lock = heap.allocPlain(shared_k_, true);
        heap.setField(lock, kShHits, Value::ofInt(0));
        heap.setField(lock, kShLast, Value::ofInt(0));
        heap.setElem(locks, static_cast<uint32_t>(i),
                     Value::ofRef(lock));
    }
    ctx.setStatic(shared_k_, kShLocks, Value::ofRef(locks));

    vm::Ref cache =
        heap.allocArray(fw_.arrayKlass(), kCacheObjects, true);
    for (int i = 0; i < kCacheObjects; ++i) {
        vm::Ref entry = heap.allocPlain(shared_k_, true);
        heap.setField(entry, kShHits, Value::ofInt(i));
        heap.setElem(cache, static_cast<uint32_t>(i),
                     Value::ofRef(entry));
    }
    ctx.setStatic(shared_k_, kShCache, Value::ofRef(cache));
}

} // namespace beehive::apps
