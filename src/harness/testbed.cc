#include "harness/testbed.h"

#include "support/logging.h"
#include "vm/quicken.h"

namespace beehive::harness {

const char *
appName(AppKind kind)
{
    switch (kind) {
      case AppKind::Thumbnail: return "thumbnail";
      case AppKind::Pybbs: return "pybbs";
      case AppKind::Blog: return "blog";
    }
    return "?";
}

Testbed::Testbed(TestbedOptions options) : options_(options)
{
    NetCalibration net_cal;
    VmCalibration vm_cal;

    sim_ = std::make_unique<sim::Simulation>(options_.seed);
    if (options_.beehive.telemetry) {
        tracer_ = std::make_unique<telemetry::Tracer>(
            *sim_, options_.beehive.telemetry_span_capacity);
        sim_->setTracer(tracer_.get());
    }
    net_ = std::make_unique<net::Network>(options_.seed ^ 0x9e3779b9);
    net_->setZoneLatency("vpc", "vpc", net_cal.vpc_vpc);
    net_->setZoneLatency("vpc", "db", net_cal.vpc_db);
    net_->setZoneLatency("lambda", "vpc", net_cal.lambda_vpc);
    net_->setZoneLatency("lambda", "db", net_cal.lambda_db);
    net_->setZoneLatency("db", "db", sim::SimTime::usec(20));
    if (options_.cross_az) {
        // OpenWhisk workers in a different availability zone.
        net_->setZoneLatency("faas-az2", "vpc",
                             net_cal.vpc_vpc + net_cal.cross_az_extra);
        net_->setZoneLatency("faas-az2", "db",
                             net_cal.vpc_db + net_cal.cross_az_extra);
    }

    // Program: framework first, then the app (all klasses must
    // exist before any VM context loads the program).
    program_ = std::make_unique<vm::Program>();
    natives_ = std::make_unique<vm::NativeRegistry>();
    framework_ = std::make_unique<apps::Framework>(
        *program_, *natives_, options_.framework);
    switch (options_.app) {
      case AppKind::Thumbnail:
        app_ = std::make_unique<apps::ThumbnailApp>(*framework_);
        break;
      case AppKind::Pybbs:
        app_ = std::make_unique<apps::PybbsApp>(*framework_);
        break;
      case AppKind::Blog:
        app_ = std::make_unique<apps::BlogApp>(*framework_);
        break;
    }
    // The program is complete: fuse its generated-code idioms
    // (vm/quicken.h; simulated output is unchanged).
    vm::quicken(*program_);

    // Database machine + proxy (Section 5.1: m4.10xlarge so the DB
    // never bottlenecks any scaling solution).
    store_ = std::make_unique<db::RecordStore>();
    app_->seedDatabase(*store_);
    db_machine_ = std::make_unique<cloud::Instance>(
        *sim_, *net_, cloud::m410XLarge(), "db-1", "db");
    proxy_ = std::make_unique<proxy::ConnectionProxy>(*store_);

    // The always-on server.
    core::BeeHiveConfig cfg = options_.beehive;
    framework_->applyVmDefaults(cfg);
    cfg.server_vm.instr_cost_ns = options_.vanilla
                                      ? vm_cal.vanilla_instr_ns
                                      : vm_cal.beehive_instr_ns;
    server_machine_ = std::make_unique<cloud::Instance>(
        *sim_, *net_, cloud::m4XLarge(), "server-1", "vpc");
    server_ = std::make_unique<core::BeeHiveServer>(
        *sim_, *net_, *program_, *natives_, *proxy_,
        db_machine_->endpoint(), *server_machine_, cfg);
    framework_->installOnServer(*server_, *proxy_);
    app_->installOnServer(*server_);
    server_->profiler().addCandidateAnnotation("RequestMapping");

    if (!options_.vanilla) {
        cloud::FaasProfile profile;
        if (options_.faas == FaasFlavor::OpenWhisk) {
            profile = cloud::openWhiskProfile();
            if (options_.cross_az)
                profile.zone = "faas-az2";
        } else {
            profile = cloud::lambdaProfile(
                app_->lambdaType().memory_gb);
            profile.instance_type = app_->lambdaType();
        }
        if (options_.faas_keep_alive.ns() > 0)
            profile.keep_alive = options_.faas_keep_alive;
        platform_ = std::make_unique<cloud::FaasPlatform>(
            *sim_, *net_, profile);
        manager_ = std::make_unique<core::OffloadManager>(
            *server_, *platform_);
    }

    // Fault-injection plane (off by default: no engine, no hooks,
    // byte-identical behaviour). Each subsystem holds a pointer to
    // the one engine and consults it at its injection sites.
    if (options_.chaos.enabled) {
        chaos_ = std::make_unique<chaos::ChaosEngine>(
            *sim_, options_.chaos, options_.seed);
        net_->setChaos(chaos_.get());
        store_->setFaultHook([this](const db::Request &) {
            return chaos_->resetDbConnection();
        });
        if (platform_)
            platform_->setChaos(chaos_.get());
        if (server_->snapshots())
            server_->snapshots()->setChaos(chaos_.get());
        if (manager_)
            manager_->setChaos(chaos_.get());
        chaos_->arm();
    }
}

Testbed::~Testbed() = default;

void
Testbed::harvestMetrics()
{
    if (!tracer_)
        return;
    telemetry::MetricsRegistry &m = tracer_->metrics();
    const sim::EventQueue &q = sim_->queue();
    m.set("sim.events_scheduled", q.scheduled());
    m.set("sim.events_dispatched", q.dispatched());
    m.set("sim.events_cancelled", q.cancelled());

    const core::ServerStats &ss = server_->stats();
    m.set("server.requests", ss.local_requests);
    m.set("server.queued", ss.queued);
    m.set("db.resets", ss.db_resets);
    m.set("vm.instructions", ss.instructions);
    m.set("vm.calls", ss.calls);
    m.set("vm.native_calls", ss.native_calls);
    const gc::GcTotals &gc = server_->collector().totals();
    m.set("gc.cycles", gc.collections);
    m.set("gc.bytes_copied", gc.bytes_copied);
    const core::SyncManager::Stats &sync = server_->sync().stats();
    m.set("sync.remote_acquires", sync.remote_acquires);
    m.set("sync.objects_transferred", sync.objects_transferred);
    m.set("sync.bytes_transferred", sync.bytes_transferred);
    m.set("sync.monitor_contended", sync.monitor_contended);

    // DB operations are counted where the proxy routes them: over
    // server connections, and over offloaded (packed) connections.
    const proxy::ConnectionProxy::Stats &ps = proxy_->stats();
    m.set("db.ops", ps.requests_routed - ps.offload_requests);
    m.set("fn.db_ops", ps.offload_requests);
    m.set("proxy.prepares", ps.prepares);
    m.set("proxy.attaches", ps.attaches);
    m.set("proxy.shadow_sessions", ps.shadow_sessions);
    m.set("proxy.shadow_writes", ps.shadow_writes);
    m.set("proxy.shadow_aborts", ps.shadow_aborts);
    m.set("proxy.reconnects", ps.reconnects);
    m.set("proxy.read_retries", ps.read_retries);
    m.set("proxy.idem_writes_applied", ps.idem_writes_applied);
    m.set("proxy.dup_writes_suppressed", ps.dup_writes_suppressed);

    if (platform_) {
        m.set("faas.cold_boots", platform_->coldBoots());
        m.set("faas.warm_boots", platform_->warmBoots());
        m.set("faas.restore_boots", platform_->restoreBoots());
        m.set("faas.instances", platform_->totalInstances());
        m.set("faas.cache_expired", platform_->expired());
    }
    if (manager_) {
        const core::OffloadStats &o = manager_->stats();
        m.set("offload.local", o.local);
        m.set("offload.flights", o.flights);
        m.set("offload.completed", o.completed);
        m.set("offload.warm_dispatches", o.offloaded);
        m.set("offload.shadow_flights", o.shadows);
        m.set("offload.restore_boots", o.restores);
        m.set("offload.closure_installs", o.closure_installs);
        m.set("offload.retries", o.retries);
        m.set("offload.kills", o.kills);
        m.set("offload.deadline_expirations", o.deadline_expirations);
        m.set("offload.boot_failures", o.boot_failures);
        m.set("offload.local_fallbacks", o.local_fallbacks);
        m.set("offload.shadows_abandoned", o.shadows_abandoned);
        m.set("offload.breaker_ejections", o.breaker_ejections);
        m.set("offload.degradations", o.degradations);
        m.set("offload.degrade_recoveries", o.degrade_recoveries);
        m.set("offload.corrupt_restores", o.corrupt_restores);
        const core::FunctionStats &f = manager_->functionStats();
        m.set("fn.invocations", f.invocations);
        m.set("fn.resumes", f.resumes);
        m.set("fn.shadow_invocations", f.shadow_invocations);
        m.set("fn.db_resets", f.db_resets);
        m.set("fallback.code", f.code_fetches);
        m.set("fallback.data", f.data_fetches);
        m.set("fallback.native", f.native_fallbacks);
        m.set("fallback.sync", f.sync_fallbacks);
        m.set("fallback.connection", f.connection_fallbacks);
        m.set("prefetch.klasses", f.prefetched_klasses);
        m.set("prefetch.objects", f.prefetched_objects);
        m.set("prefetch.stale_objects", f.stale_prefetches);
        m.set("gc.fn_cycles", f.gc_cycles);
        m.set("gc.fn_bytes_copied", f.gc_bytes_copied);
    }

    // Fault-free runs export zero faults.
    const chaos::ChaosStats c =
        chaos_ ? chaos_->stats() : chaos::ChaosStats{};
    m.set("chaos.net_drops", c.net_drops);
    m.set("chaos.net_spikes", c.net_spikes);
    m.set("chaos.partition_drops", c.partition_drops);
    m.set("chaos.boot_crashes", c.boot_crashes);
    m.set("chaos.restore_crashes", c.restore_crashes);
    m.set("chaos.invoke_crashes", c.invoke_crashes);
    m.set("chaos.throttles", c.throttles);
    m.set("chaos.db_resets", c.db_resets);
    m.set("chaos.image_corruptions", c.image_corruptions);
    m.set("chaos.total", c.total());
}

workload::RequestSink
Testbed::sink()
{
    return sinkTo(*server_);
}

workload::RequestSink
Testbed::sinkTo(core::BeeHiveServer &server)
{
    vm::MethodId entry = app_->entry();
    return [&server, entry](int64_t id, std::function<void()> done) {
        server.handleLocal(entry, {vm::Value::ofInt(id)},
                           [done = std::move(done)](vm::Value) {
                               done();
                           });
    };
}

bool
Testbed::runProfilingPhase()
{
    server_->setProfiling(true);
    workload::Recorder recorder;
    workload::ClosedLoopClients clients(*sim_, sink(), recorder);
    clients.start(2, sim_->now());
    // Drive the simulation until enough requests completed.
    sim::SimTime guard = sim_->now() + sim::SimTime::sec(600);
    while (recorder.completed() <
               static_cast<uint64_t>(options_.profiling_requests) &&
           sim_->now() < guard) {
        sim_->runUntil(sim_->now() + sim::SimTime::msec(250));
    }
    clients.stopAll();
    sim_->runUntil(sim_->now() + sim::SimTime::sec(2));
    // Under fault injection a profiling request can stall well past
    // the nominal drain (blackholed messages, retry chains); its
    // completion callback would then fire into this function's dead
    // locals. Keep draining until every client loop has unwound.
    // Fault-free runs are already quiescent here, so this adds no
    // simulated time and the phase stays byte-identical.
    sim::SimTime drain_guard = sim_->now() + sim::SimTime::sec(600);
    while (clients.active() > 0 && sim_->now() < drain_guard)
        sim_->runUntil(sim_->now() + sim::SimTime::msec(250));
    bh_assert(clients.active() == 0,
              "profiling clients still active after drain");

    // Root selection: accumulated time large, average time not
    // short (Section 4.3's two heuristics).
    auto roots = server_->profiler().selectRoots(
        /*min_total_ns=*/5e6, /*min_avg_ns=*/1e6);
    // Root selection is the profile's only consumer on the server
    // side; profiling on every later request would only cost time.
    server_->setProfiling(false);
    bool selected = false;
    for (vm::MethodId root : roots) {
        if (root == app_->handler())
            selected = true;
    }
    if (selected && manager_) {
        manager_->enableRoot(app_->handler(),
                             {vm::Value::ofInt(0)});
    }
    return selected;
}

core::BeeHiveServer &
Testbed::addBaselineServer(cloud::Instance &machine)
{
    core::BeeHiveConfig cfg = options_.beehive;
    framework_->applyVmDefaults(cfg);
    VmCalibration vm_cal;
    cfg.server_vm.instr_cost_ns = vm_cal.vanilla_instr_ns;
    auto server = std::make_unique<core::BeeHiveServer>(
        *sim_, *net_, *program_, *natives_, *proxy_,
        db_machine_->endpoint(), machine, cfg);
    framework_->installOnServer(*server, *proxy_);
    app_->installOnServer(*server);
    extra_servers_.push_back(std::move(server));
    return *extra_servers_.back();
}

} // namespace beehive::harness
