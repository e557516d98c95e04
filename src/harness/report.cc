#include "harness/report.h"

#include <cmath>
#include <cstdio>

#include "support/strutil.h"

namespace beehive::harness {

std::string
fmt(double v, int decimals)
{
    if (std::isnan(v))
        return "-";
    return strprintf("%.*f", decimals, v);
}

void
printTable(const std::string &title,
           const std::vector<std::string> &headers,
           const std::vector<std::vector<std::string>> &rows)
{
    std::printf("\n== %s ==\n", title.c_str());
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        widths[c] = headers[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size() && c < widths.size();
             ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &cell = c < row.size() ? row[c] : "";
            std::printf("%-*s  ", static_cast<int>(widths[c]),
                        cell.c_str());
        }
        std::printf("\n");
    };
    print_row(headers);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows)
        print_row(row);
}

void
printSeriesHeader(const std::string &title, const std::string &x_label,
                  const std::string &y_label)
{
    std::printf("\n== %s ==\n# series: label, (%s %s) pairs\n",
                title.c_str(), x_label.c_str(), y_label.c_str());
}

void
printSeries(const std::string &label, const std::vector<double> &xs,
            const std::vector<double> &ys)
{
    std::printf("%s", label.c_str());
    for (std::size_t i = 0; i < xs.size() && i < ys.size(); ++i) {
        if (std::isnan(ys[i]))
            continue;
        std::printf(", %g %g", xs[i], ys[i]);
    }
    std::printf("\n");
}

std::vector<BootBreakdownRow>
collectBootBreakdown(
    const std::vector<std::pair<vm::MethodId, core::RequestTrace>>
        &traces)
{
    std::vector<BootBreakdownRow> rows;
    auto rowFor = [&rows](vm::MethodId root) -> BootBreakdownRow & {
        for (BootBreakdownRow &r : rows) {
            if (r.root == root)
                return r;
        }
        rows.emplace_back();
        rows.back().root = root;
        return rows.back();
    };
    for (const auto &[root, trace] : traces) {
        BootBreakdownRow &row = rowFor(root);
        auto kind = static_cast<std::size_t>(trace.boot);
        if (kind >= 4)
            continue;
        ++row.boots[kind];
        row.fetches[kind] += trace.remoteFetches();
        row.prefetched_klasses += trace.prefetched_klasses;
        row.prefetched_objects += trace.prefetched_objects;
        row.stale_prefetches += trace.stale_prefetches;
    }
    return rows;
}

void
printBootBreakdown(
    const std::string &title,
    const std::function<std::string(vm::MethodId)> &name,
    const std::vector<BootBreakdownRow> &rows)
{
    auto mean = [](uint64_t sum, uint64_t n) {
        return n ? static_cast<double>(sum) / static_cast<double>(n)
                 : std::nan("");
    };
    std::vector<std::vector<std::string>> cells;
    for (const BootBreakdownRow &r : rows) {
        auto cold = static_cast<std::size_t>(cloud::BootKind::Cold);
        auto warm = static_cast<std::size_t>(cloud::BootKind::Warm);
        auto restore =
            static_cast<std::size_t>(cloud::BootKind::Restore);
        cells.push_back({
            name(r.root),
            strprintf("%llu", static_cast<unsigned long long>(
                                  r.boots[cold])),
            strprintf("%llu", static_cast<unsigned long long>(
                                  r.boots[warm])),
            strprintf("%llu", static_cast<unsigned long long>(
                                  r.boots[restore])),
            fmt(mean(r.fetches[cold], r.boots[cold])),
            fmt(mean(r.fetches[warm], r.boots[warm])),
            fmt(mean(r.fetches[restore], r.boots[restore])),
            strprintf("%llu", static_cast<unsigned long long>(
                                  r.prefetched_klasses)),
            strprintf("%llu", static_cast<unsigned long long>(
                                  r.prefetched_objects)),
            strprintf("%llu", static_cast<unsigned long long>(
                                  r.stale_prefetches)),
        });
    }
    printTable(title,
               {"endpoint", "cold", "warm", "restore", "fetch/cold",
                "fetch/warm", "fetch/restore", "pre-klass", "pre-obj",
                "stale"},
               cells);
}

void
printSnapshotChurn(const std::string &title,
                   const SnapshotChurn &churn)
{
    auto u = [](uint64_t v) {
        return strprintf("%llu", static_cast<unsigned long long>(v));
    };
    printTable(title,
               {"manifests", "refined", "stale"},
               {{u(churn.manifests_synthesized),
                 u(churn.refined_dropped),
                 u(churn.stale_prefetches)}});
}

void
printPhaseBreakdown(const std::string &title,
                    const telemetry::PhaseAggregate &agg)
{
    std::vector<std::vector<std::string>> rows;
    for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p) {
        const sim::SampleSet &s = agg.phase_ms[p];
        if (s.empty() || s.sum() == 0.0)
            continue;
        rows.push_back(
            {telemetry::phaseName(static_cast<telemetry::Phase>(p)),
             fmt(s.sum(), 1), fmt(s.mean(), 3)});
    }
    rows.push_back({"total", fmt(agg.total_ms.sum(), 1),
                    fmt(agg.total_ms.mean(), 3)});
    printTable(title + strprintf(" (%llu requests)",
                                 static_cast<unsigned long long>(
                                     agg.requests)),
               {"phase", "total_ms", "mean_ms/request"}, rows);
}

} // namespace beehive::harness
