/**
 * @file
 * Figure 7: tail latency under dynamic workload (burst reduction),
 * and the artifacts read off the same runs: Table 3 (their scaling
 * cost), Figure 9 (that cost per hour at various burst ratios) and
 * Section 5.7 (BeeHive combined with on-demand scaling).
 *
 * For each app and scaling solution, clients run at near-peak load;
 * at t=60 s the workload doubles. The bench prints the per-second
 * p99 series Figure 7 plots, plus the stabilization summary of
 * Section 5.2: cold-FaaS stabilization averaging ~9 s (OpenWhisk) /
 * ~16 s (Lambda) vs ~40-100 s for Fargate/EC2, sub-second when warm
 * instances are cached, and the stabilized-p99 overhead of
 * Semi-FaaS execution (+15% OpenWhisk / +31% Lambda vs EC2).
 *
 * Table 3 paper values: EC2 0.007 / Fargate 0.008 / Burstable
 * 0.005 across apps; BeeHiveO 0.010-0.017, BeeHiveL 0.008-0.012.
 * Figure 9 landmarks: BeeHiveL crosses below Burstable near a 30%
 * burst ratio and is 3.47x cheaper at 10% (pybbs); blog/thumbnail
 * reach 4.33x/2.89x (2.60x/3.47x on OpenWhisk).
 */

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/burst.h"
#include "harness/report.h"
#include "sim/stats.h"
#include "support/strutil.h"
#include "telemetry/export.h"

using namespace beehive;
using namespace beehive::harness;
using namespace beehive::bench;
using sim::SimTime;

namespace {

/** Mean remote fetches per shadow run on @p kind-booted instances. */
double
shadowFetches(const BurstResult &r, cloud::BootKind kind)
{
    uint64_t fetches = 0;
    uint64_t n = 0;
    for (const auto &[root, t] : r.traces) {
        if (t.boot != kind || !t.shadow)
            continue;
        fetches += t.remoteFetches();
        ++n;
    }
    return n ? static_cast<double>(fetches) / static_cast<double>(n)
             : std::nan("");
}

/** A stabilization time (with @p unit, if any), or "not within
 * window" when it is negative: the tail never settled in the run. */
std::string
fmtStab(double v, int decimals, const std::string &unit = "")
{
    if (v < 0)
        return "not within window";
    return unit.empty() ? fmt(v, decimals) : fmt(v, decimals) + " " + unit;
}

void
printChurn(const std::string &title, const BurstResult &r)
{
    SnapshotChurn churn;
    churn.manifests_synthesized = r.manifests_synthesized;
    churn.refined_dropped = r.snapshot_refined_dropped;
    for (const auto &[root, t] : r.traces)
        churn.stale_prefetches += t.stale_prefetches;
    printSnapshotChurn(title, churn);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv);

    const Solution solutions[] = {
        Solution::Burstable, Solution::OnDemand, Solution::Fargate,
        Solution::BeeHiveO, Solution::BeeHiveL,
    };
    const Solution faas_solutions[] = {Solution::BeeHiveO,
                                       Solution::BeeHiveL};
    const Solution combo_solutions[] = {
        Solution::OnDemand, Solution::BeeHiveO, Solution::Combo};

    const std::vector<AppKind> apps = appsFor(args);
    auto selected = [&](AppKind app) {
        return std::find(apps.begin(), apps.end(), app) != apps.end();
    };
    const bool pybbs = selected(AppKind::Pybbs);

    BurstCell window;
    if (args.quick) {
        window.duration = SimTime::sec(90);
        window.burst_at = SimTime::sec(30);
    }
    auto cell = [&](AppKind app, Solution sol,
                    BurstVariant variant = BurstVariant::Cold) {
        BurstCell c = window;
        c.app = app;
        c.solution = sol;
        c.variant = variant;
        return c;
    };
    // Section 5.7's full run is longer, so the EC2 instance serves a
    // while and the steady tail reflects the final configuration.
    auto comboCell = [&](Solution sol) {
        BurstCell c = cell(AppKind::Pybbs, sol);
        if (!args.quick)
            c.duration = SimTime::sec(240);
        return c;
    };

    // Every cell is an independent trial with its own Testbed; the
    // matrix fans them across threads and runs a cell shared by two
    // artifacts once (see harness/parallel.h for why this cannot
    // change the output). Results are looked up by cell, so the list
    // order only sets when a trial starts: Section 5.7's cells, the
    // longest in full mode, go first to shorten the pool's tail.
    std::vector<BurstCell> cells;
    if (pybbs) {
        for (Solution sol : combo_solutions)
            cells.push_back(comboCell(sol));
    }
    for (AppKind app : apps) {
        for (Solution sol : solutions) {
            cells.push_back(cell(app, sol));
            if (sol == Solution::BeeHiveO ||
                sol == Solution::BeeHiveL) {
                cells.push_back(cell(app, sol, BurstVariant::Warm));
                cells.push_back(
                    cell(app, sol, BurstVariant::Snapshot));
                cells.push_back(
                    cell(app, sol, BurstVariant::StaticManifest));
            }
        }
    }

    // --trace-out exports one designated trial: the first cold
    // BeeHiveO run (it exercises offload flights, boots and shadow
    // sessions, so its trace shows every span kind).
    const BurstCell trace_cell = cell(apps.front(), Solution::BeeHiveO);

    BurstOptions base;
    base.seed = args.seed;
    base.framework = benchFramework(args);
    base.beehive.telemetry = args.telemetry;
    base.export_trace = !args.trace_out.empty();
    base.trace_request = args.trace_request;
    const BurstMatrix matrix =
        runBurstMatrix(cells, base, args.threads, &trace_cell);
    auto result = [&](AppKind app, Solution sol,
                      BurstVariant variant =
                          BurstVariant::Cold) -> const BurstResult & {
        return matrix.at(cell(app, sol, variant));
    };

    if (!args.trace_out.empty()) {
        telemetry::writeTraceFile(matrix.at(trace_cell).trace_json,
                                  args.trace_out);
    }

    // --- The figure series.
    for (AppKind app : apps) {
        printSeriesHeader(
            std::string("Figure 7: per-second p99, ") + appName(app),
            "second", "p99_s");
        for (Solution sol : solutions) {
            const BurstResult &r = result(app, sol);
            std::vector<double> xs(r.p99_per_second.size());
            for (std::size_t i = 0; i < xs.size(); ++i)
                xs[i] = static_cast<double>(i);
            printSeries(solutionName(sol), xs, r.p99_per_second);
        }
    }

    // --- Stabilization summary.
    std::vector<std::vector<std::string>> rows;
    for (AppKind app : apps) {
        for (Solution sol : solutions) {
            const BurstResult &r = result(app, sol);
            rows.push_back(
                {appName(app), solutionName(sol),
                 fmtStab(r.stabilization_seconds, 2),
                 fmt(r.pre_burst_p99 * 1e3, 1),
                 fmt(r.stable_p99 * 1e3, 1),
                 fmt(static_cast<double>(r.completed_requests), 0)});
        }
    }
    printTable("Figure 7 summary: stabilization after the burst",
               {"app", "solution", "stabilize_s", "preburst_p99_ms",
                "stable_p99_ms", "requests"},
               rows);

    // --- Warm-boot (cached instances) variant: the sub-second
    // provisioning headline.
    rows.clear();
    for (AppKind app : apps) {
        for (Solution sol : faas_solutions) {
            const BurstResult &r = result(app, sol, BurstVariant::Warm);
            rows.push_back({appName(app), solutionName(sol),
                            fmtStab(r.stabilization_seconds * 1e3, 0),
                            fmt(r.stable_p99 * 1e3, 1)});
        }
    }
    printTable("Figure 7 follow-up: warm (cached) FaaS instances",
               {"app", "solution", "stabilize_ms", "stable_p99_ms"},
               rows);

    // --- Snapshot (restore boot) variant: fresh instances boot
    // from recorded closure images, so the burst's shadow phase
    // runs without its remote-fetch storm.
    rows.clear();
    for (AppKind app : apps) {
        for (Solution sol : faas_solutions) {
            const BurstResult &r =
                result(app, sol, BurstVariant::Snapshot);
            const BurstResult &cold = result(app, sol);
            rows.push_back(
                {appName(app), solutionName(sol),
                 fmtStab(r.stabilization_seconds, 2),
                 fmtStab(cold.stabilization_seconds, 2),
                 fmt(r.stable_p99 * 1e3, 1),
                 fmt(static_cast<double>(r.restore_boots), 0),
                 fmt(static_cast<double>(r.cold_boots), 0),
                 fmt(shadowFetches(r, cloud::BootKind::Restore), 1),
                 fmt(shadowFetches(cold, cloud::BootKind::Cold), 1)});
        }
    }
    printTable("Figure 7 follow-up: restore boots from snapshot "
               "images",
               {"app", "solution", "stabilize_s", "cold_stabilize_s",
                "stable_p99_ms", "restore_boots", "cold_boots",
                "fetch/restore_shadow", "fetch/cold_shadow"},
               rows);
    for (AppKind app : apps) {
        for (Solution sol : faas_solutions) {
            const BurstResult &r =
                result(app, sol, BurstVariant::Snapshot);
            auto name = [&r](vm::MethodId root) {
                auto it = r.root_names.find(root);
                return it != r.root_names.end()
                           ? it->second
                           : std::to_string(root);
            };
            printBootBreakdown(
                std::string("Boot-path breakdown (snapshot run): ") +
                    appName(app) + ", " + solutionName(sol),
                name, collectBootBreakdown(r.traces));
            printChurn(std::string("Snapshot-store churn (snapshot "
                                   "run): ") +
                           appName(app) + ", " + solutionName(sol),
                       r);
        }
    }

    // --- Static-manifest (first-boot restore) variant: nothing was
    // ever recorded; the reachability analysis synthesized the
    // prefetch manifests at enableRoot time, so even the burst's
    // FIRST boots take the restore path.
    rows.clear();
    for (AppKind app : apps) {
        for (Solution sol : faas_solutions) {
            const BurstResult &r =
                result(app, sol, BurstVariant::StaticManifest);
            const BurstResult &cold = result(app, sol);
            rows.push_back(
                {appName(app), solutionName(sol), "static-restore",
                 fmtStab(r.stabilization_seconds, 2),
                 fmtStab(cold.stabilization_seconds, 2),
                 fmt(r.stable_p99 * 1e3, 1),
                 fmt(static_cast<double>(r.restore_boots), 0),
                 fmt(static_cast<double>(r.cold_boots), 0),
                 fmt(static_cast<double>(r.manifests_synthesized),
                     0),
                 fmt(shadowFetches(r, cloud::BootKind::Restore), 1),
                 fmt(shadowFetches(cold, cloud::BootKind::Cold),
                     1)});
        }
    }
    printTable("Figure 7 follow-up: static-manifest restore "
               "(first boot, nothing recorded)",
               {"app", "solution", "variant", "stabilize_s",
                "cold_stabilize_s", "stable_p99_ms", "restore_boots",
                "cold_boots", "manifests", "fetch/restore_shadow",
                "fetch/cold_shadow"},
               rows);
    for (AppKind app : apps) {
        for (Solution sol : faas_solutions) {
            printChurn(std::string("Snapshot-store churn "
                                   "(static-restore run): ") +
                           appName(app) + ", " + solutionName(sol),
                       result(app, sol, BurstVariant::StaticManifest));
        }
    }

    // --- Headline aggregates (Section 5.2).
    auto mean_stab = [&](Solution sol,
                         BurstVariant variant = BurstVariant::Cold) {
        sim::SampleSet stab;
        for (AppKind app : apps) {
            const BurstResult &r = result(app, sol, variant);
            if (r.stabilization_seconds >= 0)
                stab.add(r.stabilization_seconds);
        }
        return stab.empty() ? -1.0 : stab.mean();
    };
    auto secs = [&](Solution sol,
                    BurstVariant variant = BurstVariant::Cold) {
        return fmtStab(mean_stab(sol, variant), 2, "s");
    };
    auto millis = [&](Solution sol) {
        return fmtStab(mean_stab(sol, BurstVariant::Warm) * 1e3, 0,
                       "ms");
    };
    // Apps whose EC2 run never stabilized are skipped: its "stable"
    // tail is the overloaded one.
    auto overhead_vs_ec2 = [&](Solution sol) {
        sim::SampleSet overhead;
        for (AppKind app : apps) {
            const BurstResult &ec2 = result(app, Solution::OnDemand);
            double b = ec2.stable_p99;
            double s = result(app, sol).stable_p99;
            if (ec2.stabilization_seconds >= 0 && b > 0 && s > 0)
                overhead.add((s - b) / b);
        }
        return overhead.empty()
                   ? std::string("not within window")
                   : strprintf("%+.1f%%", overhead.mean() * 100.0);
    };

    std::printf("\n== Section 5.2 headline numbers ==\n");
    std::printf("mean stabilization (cold): BeeHiveO %s (paper "
                "9.33 s), BeeHiveL %s (paper 16.33 s),\n"
                "  EC2 on-demand %s, Fargate %s\n",
                secs(Solution::BeeHiveO).c_str(),
                secs(Solution::BeeHiveL).c_str(),
                secs(Solution::OnDemand).c_str(),
                secs(Solution::Fargate).c_str());
    std::printf("mean stabilization (warm FaaS): BeeHiveO %s (paper "
                "632.78 ms), BeeHiveL %s (paper 668.56 ms)\n",
                millis(Solution::BeeHiveO).c_str(),
                millis(Solution::BeeHiveL).c_str());
    std::printf("stabilized p99 overhead vs EC2: BeeHiveO %s (paper "
                "+15.0%%), BeeHiveL %s (paper +31.0%%)\n",
                overhead_vs_ec2(Solution::BeeHiveO).c_str(),
                overhead_vs_ec2(Solution::BeeHiveL).c_str());
    std::printf("mean stabilization (snapshot restore boots): "
                "BeeHiveO %s vs %s cold, BeeHiveL %s vs %s cold\n",
                secs(Solution::BeeHiveO, BurstVariant::Snapshot).c_str(),
                secs(Solution::BeeHiveO).c_str(),
                secs(Solution::BeeHiveL, BurstVariant::Snapshot).c_str(),
                secs(Solution::BeeHiveL).c_str());
    std::printf(
        "mean stabilization (static-manifest restore, first boot): "
        "BeeHiveO %s vs %s cold, BeeHiveL %s vs %s cold\n",
        secs(Solution::BeeHiveO, BurstVariant::StaticManifest).c_str(),
        secs(Solution::BeeHiveO).c_str(),
        secs(Solution::BeeHiveL, BurstVariant::StaticManifest).c_str(),
        secs(Solution::BeeHiveL).c_str());

    // --- Table 3: the scaling cost of the cold runs above.
    const Solution cost_solutions[] = {
        Solution::OnDemand, Solution::Fargate, Solution::Burstable,
        Solution::BeeHiveO, Solution::BeeHiveL,
    };
    const char *paper_cost[] = {
        "0.007/0.007/0.007", "0.008/0.008/0.008", "0.005/0.005/0.005",
        "0.010/0.017/0.013", "0.012/0.010/0.008",
    };
    std::vector<std::string> cost_headers = {"Scaling solution"};
    for (AppKind app : apps)
        cost_headers.push_back(appName(app));
    cost_headers.push_back("paper (t/p/b)");
    rows.clear();
    for (std::size_t i = 0; i < std::size(cost_solutions); ++i) {
        std::vector<std::string> row = {
            solutionName(cost_solutions[i])};
        for (AppKind app : apps)
            row.push_back(
                fmt(result(app, cost_solutions[i]).scaling_cost, 4));
        row.push_back(paper_cost[i]);
        rows.push_back(row);
    }
    printTable("Table 3: financial cost ($) for scaling in Figure 7",
               cost_headers, rows);

    // --- Figure 9: each on-demand solution's cost rate while a
    // burst is being absorbed, composed into the hourly cost at
    // burst ratios 10-100%. The burstable instance is reserved
    // around the clock, so its cost is flat.
    auto burstRate = [&](AppKind app, Solution sol) {
        double burst_seconds =
            (window.duration - window.burst_at).toSeconds();
        return result(app, sol).scaling_cost / burst_seconds * 3600.0;
    };
    const double burstable_hourly = cloud::t3XLarge().price_per_hour;
    if (pybbs) {
        const Solution on_demand_solutions[] = {
            Solution::OnDemand, Solution::Fargate, Solution::BeeHiveO,
            Solution::BeeHiveL,
        };
        std::vector<double> ratios;
        for (int pct = 10; pct <= 100; pct += 10)
            ratios.push_back(pct / 100.0);
        printSeriesHeader(
            "Figure 9: hourly cost vs burst ratio (pybbs)",
            "burst_ratio", "cost_usd_per_hour");
        printSeries("Burstable", ratios,
                    std::vector<double>(ratios.size(),
                                        burstable_hourly));
        for (Solution sol : on_demand_solutions) {
            std::vector<double> ys;
            for (double r : ratios)
                ys.push_back(burstRate(AppKind::Pybbs, sol) * r);
            printSeries(solutionName(sol), ratios, ys);
        }
        double lambda = burstRate(AppKind::Pybbs, Solution::BeeHiveL);
        double crossover = lambda > 0 ? burstable_hourly / lambda : -1;
        std::printf("\nBeeHiveL/Burstable crossover at burst ratio "
                    "%.0f%% (paper: ~30%%)\n",
                    crossover * 100.0);
        std::printf(
            "cost reduction at 10%% burst ratio (pybbs): "
            "Lambda %.2fx (paper 3.47x), OpenWhisk %.2fx "
            "(paper 2.08x)\n",
            burstable_hourly / (lambda * 0.10),
            burstable_hourly /
                (burstRate(AppKind::Pybbs, Solution::BeeHiveO) *
                 0.10));
    }
    // The other apps at the 10% ratio (Section 5.4's closing
    // comparison).
    for (AppKind app : {AppKind::Blog, AppKind::Thumbnail}) {
        if (!selected(app))
            continue;
        std::printf("cost reduction at 10%% burst ratio (%s): "
                    "Lambda %.2fx, OpenWhisk %.2fx\n",
                    appName(app),
                    burstable_hourly /
                        (burstRate(app, Solution::BeeHiveL) * 0.10),
                    burstable_hourly /
                        (burstRate(app, Solution::BeeHiveO) * 0.10));
    }

    // --- Section 5.7: BeeHive bridges an on-demand launch, then
    // hands off. The combination should stabilize like BeeHive, end
    // on plain EC2's tail (offloading stopped) and pay FaaS billing
    // only for the bridge window.
    if (pybbs) {
        rows.clear();
        for (Solution sol : combo_solutions) {
            const BurstResult &r = matrix.at(comboCell(sol));
            rows.push_back(
                {solutionName(sol), fmtStab(r.stabilization_seconds, 1),
                 fmt(r.pre_burst_p99 * 1e3, 1),
                 fmt(r.stable_p99 * 1e3, 1), fmt(r.scaling_cost, 4),
                 fmt(static_cast<double>(r.offload.offloaded), 0),
                 fmt(static_cast<double>(r.offload.shadows), 0)});
        }
        printTable("Section 5.7: combining Semi-FaaS with on-demand "
                   "scaling (pybbs)",
                   {"solution", "stabilize_s", "preburst_p99_ms",
                    "stable_p99_ms", "cost_$", "offloaded", "shadows"},
                   rows);
        std::printf("\nExpected shape: the combination stabilizes "
                    "like BeeHive (seconds, not ~100 s), but its "
                    "final tail matches plain EC2 (offloading "
                    "stopped) and FaaS billing covers only the bridge "
                    "window.\n");
    }

    // --- Critical-path attribution (telemetry=on only).
    if (args.telemetry) {
        for (AppKind app : apps) {
            for (Solution sol : solutions) {
                const BurstResult &r = result(app, sol);
                printPhaseBreakdown(
                    std::string("Critical path: ") + appName(app) +
                        ", " + solutionName(sol),
                    r.breakdown);
                for (const std::string &v : r.span_violations)
                    std::printf("span violation: %s\n", v.c_str());
            }
        }
    }
    return 0;
}
