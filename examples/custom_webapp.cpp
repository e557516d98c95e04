/**
 * @file
 * Bring your own application: build a web app against the public
 * API -- klasses and bytecode via CodeBuilder, a handler annotated
 * for offloading, database access through the framework's pooled
 * connections -- and run it under BeeHive end to end.
 *
 * The app is a tiny "url shortener": each request looks up a slug,
 * counts a hit under a shared lock, and stores an access-log row.
 *
 * Run: ./build/examples/custom_webapp
 */

#include <cstdio>

#include "apps/framework.h"
#include "cloud/faas.h"
#include "core/offload.h"
#include "core/server.h"
#include "workload/clients.h"

using namespace beehive;
using vm::Value;

int
main()
{
    // --- Simulation substrate.
    sim::Simulation sim(7);
    net::Network net(7);
    net.setZoneLatency("vpc", "vpc", sim::SimTime::usec(190));
    net.setZoneLatency("vpc", "db", sim::SimTime::usec(230));

    // --- Program: the framework first, then our app's klasses.
    vm::Program program;
    vm::NativeRegistry natives;
    apps::FrameworkOptions fw_opts;
    fw_opts.config_objects = 200;
    apps::Framework fw(program, natives, fw_opts);

    vm::Klass shortener;
    shortener.name = "shortener/Service";
    shortener.fields = {"hits", "last"};
    shortener.statics = {"counter"};
    vm::KlassId service_k = program.addKlass(shortener);

    int64_t slugs = fw.tableId("slugs");
    int64_t logs = fw.tableId("access_log");

    // resolve(request_id): the business-logic handler. The
    // "RequestMapping" annotation is what makes it an offloading
    // candidate (Section 4.3 of the paper).
    vm::CodeBuilder b(program, service_k, "resolve", 1);
    b.annotate("RequestMapping");
    b.locals(3); // 1: conn, 2: scratch
    fw.emitGetConnection(b, 0);
    b.store(1);
    // slug lookup
    b.load(1).pushI(slugs).load(0).pushI(500).mod()
        .call(fw.dbGet()).popv();
    // hit counter under the shared lock
    b.getStatic(service_k, 0).store(2);
    b.load(2).monitorEnter();
    b.load(2).load(2).getField(0).pushI(1).add().putField(0);
    b.load(2).monitorExit();
    // redirect bookkeeping
    b.compute(2500000); // 2.5 ms of rendering/redirect logic
    b.load(1).pushI(logs).load(0).pushI(64).call(fw.dbPut()).popv();
    b.pushI(302).ret(); // HTTP redirect
    vm::MethodId handler = b.build();
    vm::MethodId entry = fw.wrapWithInterceptors("shortener", handler);

    // --- Database + proxy + machines.
    db::RecordStore store;
    std::vector<db::RecordRef> slug_rows;
    for (int i = 0; i < 500; ++i) {
        const std::string url = "https://example.com/" + std::to_string(i);
        const db::Field fields[] = {{"url", url}};
        slug_rows.push_back(db::Record::make(i, fields));
    }
    store.load("slugs", std::move(slug_rows));
    store.createTable("access_log");
    cloud::Instance db_machine(sim, net, cloud::m410XLarge(), "db",
                               "db");
    proxy::ConnectionProxy proxy(store);
    cloud::Instance server_machine(sim, net, cloud::m4XLarge(),
                                   "server", "vpc");

    // --- BeeHive server + app state.
    core::BeeHiveConfig cfg;
    fw.applyVmDefaults(cfg);
    core::BeeHiveServer server(sim, net, program, natives, proxy,
                               db_machine.endpoint(), server_machine,
                               cfg);
    fw.installOnServer(server, proxy);
    vm::Ref counter = server.heap().allocPlain(service_k, true);
    server.heap().setField(counter, 0, Value::ofInt(0));
    server.context().setStatic(service_k, 0, Value::ofRef(counter));
    server.profiler().addCandidateAnnotation("RequestMapping");
    server.setProfiling(true);

    // --- FaaS platform + offload manager.
    cloud::FaasPlatform platform(sim, net, cloud::openWhiskProfile());
    core::OffloadManager manager(server, platform);

    // --- Profile, select, offload.
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(
        sim,
        [&](int64_t id, std::function<void()> done) {
            server.handleLocal(entry, {Value::ofInt(id)},
                               [done = std::move(done)](Value) {
                                   done();
                               });
        },
        recorder);
    clients.start(6, sim.now());
    sim.runUntil(sim::SimTime::sec(5));

    auto roots = server.profiler().selectRoots(5e6, 1e6);
    bool ours = !roots.empty() && roots.front() == handler;
    std::printf("profiler selected shortener/Service.resolve: %s\n",
                ours ? "yes" : "no");
    manager.enableRoot(handler, {Value::ofInt(0)});
    manager.setOffloadRatio(0.5);

    sim.runUntil(sim::SimTime::sec(40));
    clients.stopAll();
    sim.runUntil(sim::SimTime::sec(42));

    std::printf("completed %llu requests: %llu local, %llu "
                "offloaded, %llu shadows\n",
                (unsigned long long)recorder.completed(),
                (unsigned long long)manager.stats().local,
                (unsigned long long)manager.stats().offloaded,
                (unsigned long long)manager.stats().shadows);
    std::printf("hit counter (synchronized across endpoints): %lld\n",
                (long long)server.heap().field(counter, 0).asInt());
    std::printf("access log rows: %zu\n",
                store.tableSize("access_log"));
    std::printf("mean latency %.1f ms, p99 %.1f ms\n",
                recorder.latencies().mean() * 1e3,
                recorder.latencies().percentile(99) * 1e3);
    return 0;
}
