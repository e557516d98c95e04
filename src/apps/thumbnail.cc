#include "apps/thumbnail.h"

namespace beehive::apps {

using vm::CodeBuilder;
using vm::Value;

ThumbnailApp::ThumbnailApp(Framework &framework) : fw_(framework)
{
    vm::Program &program = fw_.program();

    vm::Klass stats;
    stats.name = "thumbnail/Stats";
    stats.fields = {"processed", "bytesOut"};
    stats.statics = {"instance"};
    stats.code_bytes = 1400;
    stats_k_ = program.addKlass(stats);
    program.hintStatic(stats_k_, 0, stats_k_);

    int64_t images = fw_.tableId("images");
    int64_t thumbs = fw_.tableId("thumbs");

    // handler(request_id) -- annotated offloading candidate.
    CodeBuilder b(program, stats_k_, "render", 1);
    b.annotate("RequestMapping");
    b.locals(4); // 1: scratch, 2: scratch, 3: loop counter
    // Framework plumbing footprint (light for this micro-benchmark).
    fw_.emitConfigWalk(b, 64, 2);
    fw_.emitNativeMix(b, 30000, 2000, 50, 1);
    // Fetch the source image record.
    fw_.emitGetConnection(b, 0);
    b.pushI(images);
    b.load(0).pushI(kImages).mod();
    b.call(fw_.dbGet()).popv();
    // Resampling kernel: 70 passes of ~0.5 ms with buffer churn.
    {
        auto top = b.newLabel(), done = b.newLabel();
        b.pushI(70).store(3);
        b.bind(top);
        b.load(3).pushI(0).cmpLe().jnz(done);
        b.pushI(128).newArr(fw_.arrayKlass()).popv(); // scan buffer
        b.compute(480000);
        b.pushI(64).call(fw_.arraycopy()).popv();
        b.load(3).pushI(1).sub().store(3);
        b.jmp(top);
        b.bind(done);
    }
    // Update shared statistics under the monitor (the app's one
    // synchronization point).
    b.getStatic(stats_k_, 0).store(1);
    b.load(1).monitorEnter();
    b.load(1).load(1).getField(0).pushI(1).add().putField(0);
    b.load(1).load(1).getField(1).pushI(256).add().putField(1);
    b.load(1).monitorExit();
    // Store the thumbnail.
    fw_.emitGetConnection(b, 0);
    b.pushI(thumbs).load(0).pushI(256).call(fw_.dbPut()).popv();
    b.pushI(200).ret(); // HTTP 200
    handler_ = b.build();

    entry_ = fw_.wrapWithInterceptors("thumbnail", handler_);
}

void
ThumbnailApp::seedDatabase(db::RecordStore &store) const
{
    const std::string image(2048, 'p');
    const db::Field fields[] = {{"image", image}};
    std::vector<db::RecordRef> images;
    images.reserve(kImages);
    for (int i = 0; i < kImages; ++i)
        images.push_back(db::Record::make(i, fields));
    store.load("images", std::move(images));
    store.createTable("thumbs");
}

void
ThumbnailApp::installOnServer(core::BeeHiveServer &server) const
{
    vm::Heap &heap = server.heap();
    vm::Ref stats = heap.allocPlain(stats_k_, /*in_closure=*/true);
    heap.setField(stats, 0, Value::ofInt(0));
    heap.setField(stats, 1, Value::ofInt(0));
    server.context().setStatic(stats_k_, 0, Value::ofRef(stats));
}

} // namespace beehive::apps
