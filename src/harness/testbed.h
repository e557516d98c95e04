/**
 * @file
 * Testbed: one fully assembled experiment environment.
 *
 * Mirrors the paper's Section 5.1 setup: an m4.xlarge server in the
 * VPC, the database (plus connection proxy) on an m4.10xlarge, and
 * a FaaS platform -- OpenWhisk (m4.large workers in the VPC) or
 * AWS Lambda (1-2 GB functions in a higher-latency zone). One of
 * the three applications is installed; a profiling phase warms the
 * candidate profiler so closures can be built.
 */

#ifndef BEEHIVE_HARNESS_TESTBED_H
#define BEEHIVE_HARNESS_TESTBED_H

#include <memory>

#include "apps/app.h"
#include "apps/blog.h"
#include "apps/framework.h"
#include "apps/pybbs.h"
#include "apps/thumbnail.h"
#include "chaos/chaos.h"
#include "cloud/faas.h"
#include "cloud/scaling.h"
#include "core/offload.h"
#include "core/server.h"
#include "harness/calibration.h"
#include "telemetry/telemetry.h"
#include "workload/clients.h"

namespace beehive::harness {

/** The evaluated applications. */
enum class AppKind { Thumbnail, Pybbs, Blog };

const char *appName(AppKind kind);

/** Which FaaS deployment BeeHive offloads to. */
enum class FaasFlavor { OpenWhisk, Lambda };

/** Testbed assembly options. */
struct TestbedOptions
{
    AppKind app = AppKind::Pybbs;
    FaasFlavor faas = FaasFlavor::OpenWhisk;
    uint64_t seed = 1;

    /**
     * Vanilla mode: an unmodified JVM -- no write barriers, no
     * offload manager (the Figure 8 baseline).
     */
    bool vanilla = false;

    apps::FrameworkOptions framework;
    core::BeeHiveConfig beehive;

    /** Requests executed during the profiling phase. */
    int profiling_requests = 25;

    /** Place OpenWhisk workers in another availability zone
     * (Section 5.2's 23.2% overhead experiment). */
    bool cross_az = false;

    /** Override the FaaS profile's keep-alive when non-zero
     * (snapshot experiments use short windows so instance caches
     * actually expire within the simulated horizon). */
    sim::SimTime faas_keep_alive;

    /**
     * Fault-injection plan. Disabled by default: no engine is
     * constructed, no hooks are attached, and the testbed behaves
     * byte-identically to one built before the chaos plane existed.
     */
    chaos::FaultPlan chaos;
};

/** One assembled environment. */
class Testbed
{
  public:
    explicit Testbed(TestbedOptions options);
    ~Testbed();

    /** @name Access */
    /// @{
    sim::Simulation &sim() { return *sim_; }
    net::Network &network() { return *net_; }
    vm::Program &program() { return *program_; }
    apps::Framework &framework() { return *framework_; }
    apps::WebApp &app() { return *app_; }
    db::RecordStore &store() { return *store_; }
    proxy::ConnectionProxy &proxy() { return *proxy_; }
    core::BeeHiveServer &server() { return *server_; }
    /** Null in vanilla mode. */
    core::OffloadManager *manager() { return manager_.get(); }
    /** Null in vanilla mode. */
    cloud::FaasPlatform *platform() { return platform_.get(); }
    /** Fault-injection engine; null unless options.chaos.enabled. */
    chaos::ChaosEngine *chaosEngine() { return chaos_.get(); }
    cloud::Instance &serverMachine() { return *server_machine_; }
    const TestbedOptions &options() const { return options_; }

    /** Span recorder; null unless config.telemetry. */
    telemetry::Tracer *tracer() { return tracer_.get(); }

    /**
     * Export every count of the run into the tracer's metrics
     * registry, one name per count, copied from the typed stats of
     * the module that counted it (event queue, server, collector,
     * sync, proxy, FaaS platform, offload manager, chaos engine).
     * The only writer of the registry. No-op when telemetry is off.
     */
    void harvestMetrics();
    /// @}

    /** Request sink into the primary server (framework entry). */
    workload::RequestSink sink();

    /** Request sink into an additional (baseline scale-out) server. */
    workload::RequestSink sinkTo(core::BeeHiveServer &server);

    /**
     * Run the profiling phase: a couple of closed-loop clients
     * execute @c profiling_requests requests so the candidate
     * profiler accumulates the handler's profile; then the root is
     * selected (Section 4.3 heuristics) and enabled for offload.
     *
     * @retval true when the app handler was selected as a root.
     */
    bool runProfilingPhase();

    /**
     * Create a second vanilla server on @p machine (the baseline
     * scale-out path: the new on-demand/burstable/Fargate instance
     * runs the whole monolith). App state and connections are
     * installed; the caller routes requests to it.
     */
    core::BeeHiveServer &addBaselineServer(cloud::Instance &machine);

  private:
    TestbedOptions options_;
    std::unique_ptr<sim::Simulation> sim_;
    std::unique_ptr<telemetry::Tracer> tracer_;
    std::unique_ptr<net::Network> net_;
    std::unique_ptr<vm::Program> program_;
    std::unique_ptr<vm::NativeRegistry> natives_;
    std::unique_ptr<apps::Framework> framework_;
    std::unique_ptr<apps::WebApp> app_;
    std::unique_ptr<db::RecordStore> store_;
    std::unique_ptr<proxy::ConnectionProxy> proxy_;
    std::unique_ptr<cloud::Instance> db_machine_;
    std::unique_ptr<cloud::Instance> server_machine_;
    std::unique_ptr<core::BeeHiveServer> server_;
    std::unique_ptr<cloud::FaasPlatform> platform_;
    std::unique_ptr<core::OffloadManager> manager_;
    std::unique_ptr<chaos::ChaosEngine> chaos_;
    std::vector<std::unique_ptr<core::BeeHiveServer>> extra_servers_;
};

} // namespace beehive::harness

#endif // BEEHIVE_HARNESS_TESTBED_H
