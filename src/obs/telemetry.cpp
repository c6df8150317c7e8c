#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "util/error.hpp"

namespace bookleaf::obs {

namespace {

/// Registry of dt controller constraint names. Order defines the stable
/// codes used over the telemetry gather wire; new reasons append.
constexpr std::string_view dt_reasons[] = {
    "?",         // 0: unknown / unrecorded
    "initial",   // 1: first step, no history
    "CFL",       // 2: sound-speed CFL bound (getdt)
    "divergence",// 3: compression-rate bound (getdt)
    "growth",    // 4: growth-factor clamp vs previous dt (getdt)
    "maximum",   // 5: dt_max ceiling (getdt)
    "t_end",     // 6: clamped to land exactly on t_end (driver)
    "regrow",    // 7: post-retry growth cap (driver)
    "health-retry", // 8: dt backoff after a failed health guard (driver)
};

} // namespace

int dt_reason_code(std::string_view reason) {
    for (std::size_t i = 0; i < std::size(dt_reasons); ++i)
        if (dt_reasons[i] == reason) return static_cast<int>(i);
    return 0;
}

std::string_view dt_reason_name(int code) {
    if (code < 0 || static_cast<std::size_t>(code) >= std::size(dt_reasons))
        return dt_reasons[0];
    return dt_reasons[static_cast<std::size_t>(code)];
}

double RankRecord::step_wall_s() const {
    // Retained records plus the max_steps ring's evicted aggregate: the
    // total stays exact however many records the ring dropped.
    double sum = evicted.wall_us;
    for (const auto& s : steps) sum += s.wall_us;
    return sum * 1e-6;
}

double RankRecord::busy_s() const {
    const auto wait = [&](util::Kernel k) {
        return kernels[static_cast<std::size_t>(k)].wall_s;
    };
    return std::max(0.0, step_wall_s() - wait(util::Kernel::halo_wait) -
                             wait(util::Kernel::reduce_wait));
}

double RankAttribution::efficiency() const {
    const double capacity =
        static_cast<double>(worker_busy_us.size()) * makespan_us;
    return capacity > 0.0 ? busy_us / capacity : 0.0;
}

double roofline_seconds(const WorkModel& work, util::Kernel k,
                        long long items) {
    if (!work.present || items <= 0) return 0.0;
    const auto& w = work.kernels[static_cast<std::size_t>(k)];
    const auto n = static_cast<double>(items);
    const double t_flops =
        work.peak_flops > 0.0 ? n * w.flops_per_item / work.peak_flops : 0.0;
    const double t_bytes =
        work.peak_bw > 0.0 ? n * w.bytes_per_item / work.peak_bw : 0.0;
    return std::max(t_flops, t_bytes);
}

namespace {

/// Kernels cheaper than this are measurement noise, never anomalies.
constexpr double anomaly_floor_s = 1e-4;

/// Scopes that block on peers: their wall time measures arrival-order
/// idleness (a rank that gets there EARLY waits longer), so a cross-rank
/// comparison flags the healthy rank. The local work the exchanges do
/// (halo_pack/halo_unpack) stays eligible — a genuinely slow rank shows
/// there, and in the compute kernels.
bool sync_kernel(util::Kernel k) {
    return k == util::Kernel::halo || k == util::Kernel::halo_wait ||
           k == util::Kernel::reduce || k == util::Kernel::reduce_wait;
}

} // namespace

std::vector<Anomaly> detect_anomalies(const RunReport& report, double factor) {
    std::vector<Anomaly> out;
    if (factor <= 1.0 || report.ranks.empty()) return out;

    // Detector 1 (cross-rank): ranks sweep comparable per-entity work, so
    // a rank whose per-item seconds (per-call when no items were counted)
    // dwarf the fastest rank's is off its expected pace — the slow_rank
    // fault signature. Needs at least two ranks to have a reference.
    // Peer-blocking scopes are excluded (see sync_kernel).
    for (std::size_t k = 0; k < util::kernel_count; ++k) {
        if (sync_kernel(static_cast<util::Kernel>(k))) continue;
        double best = 0.0;
        int n_measured = 0;
        for (const auto& r : report.ranks) {
            const auto& ks = r.kernels[k];
            const double unit = ks.items > 0 ? ks.wall_s /
                                                   static_cast<double>(ks.items)
                                : ks.calls > 0
                                    ? ks.wall_s / static_cast<double>(ks.calls)
                                    : 0.0;
            if (unit <= 0.0) continue;
            ++n_measured;
            if (best == 0.0 || unit < best) best = unit;
        }
        if (n_measured < 2 || best <= 0.0) continue;
        for (const auto& r : report.ranks) {
            const auto& ks = r.kernels[k];
            if (ks.wall_s < anomaly_floor_s) continue;
            const double unit = ks.items > 0 ? ks.wall_s /
                                                   static_cast<double>(ks.items)
                                : ks.calls > 0
                                    ? ks.wall_s / static_cast<double>(ks.calls)
                                    : 0.0;
            if (unit <= factor * best) continue;
            Anomaly a;
            a.rank = r.rank;
            a.kernel = static_cast<util::Kernel>(k);
            a.metric = "cross_rank";
            a.value = unit;
            a.reference = best;
            a.factor = unit / best;
            out.push_back(std::move(a));
        }
    }

    // Detector 2 (roofline): within one rank, every modelled kernel runs
    // the same machine, so wall/roofline ratios should cluster. A kernel
    // whose ratio is `factor` above the rank's median ratio deviates from
    // the calibrated expectation in a way the others don't — this
    // self-normalizes away how optimistic the roofline itself is.
    if (report.work.present) {
        for (const auto& r : report.ranks) {
            struct Measured {
                std::size_t k;
                double ratio;
                double roofline;
            };
            std::vector<Measured> measured;
            for (std::size_t k = 0; k < util::kernel_count; ++k) {
                const auto& ks = r.kernels[k];
                if (ks.wall_s < anomaly_floor_s) continue;
                const double expect = roofline_seconds(
                    report.work, static_cast<util::Kernel>(k), ks.items);
                if (expect <= 0.0) continue;
                measured.push_back({k, ks.wall_s / expect, expect});
            }
            if (measured.size() < 3) continue;
            std::vector<double> ratios;
            ratios.reserve(measured.size());
            for (const auto& m : measured) ratios.push_back(m.ratio);
            std::nth_element(ratios.begin(),
                             ratios.begin() +
                                 static_cast<std::ptrdiff_t>(ratios.size() / 2),
                             ratios.end());
            const double median = ratios[ratios.size() / 2];
            if (median <= 0.0) continue;
            for (const auto& m : measured) {
                if (m.ratio <= factor * median) continue;
                Anomaly a;
                a.rank = r.rank;
                a.kernel = static_cast<util::Kernel>(m.k);
                a.metric = "roofline";
                a.value = m.ratio;
                a.reference = median;
                a.factor = m.ratio / median;
                out.push_back(std::move(a));
            }
        }
    }
    return out;
}

Imbalance imbalance_of(const std::vector<RankRecord>& ranks) {
    Imbalance out;
    if (ranks.empty()) return out;
    double sum = 0.0;
    for (const auto& r : ranks) {
        const double s = r.busy_s();
        sum += s;
        if (s > out.max_rank_s) {
            out.max_rank_s = s;
            out.slowest_rank = r.rank;
        }
    }
    out.mean_rank_s = sum / static_cast<double>(ranks.size());
    out.max_over_mean =
        out.mean_rank_s > 0.0 ? out.max_rank_s / out.mean_rank_s : 1.0;
    return out;
}

Json to_json(const RunReport& report) {
    Json root = Json::object();
    root["schema"] = Json(report.schema);
    root["problem"] = Json(report.problem);
    root["label"] = Json(report.label);
    root["mode"] = Json(report.mode);
    root["n_ranks"] = Json(report.n_ranks);
    root["steps"] = Json(report.steps);
    root["t_final"] = Json(report.t_final);
    root["wall_s"] = Json(report.wall_s);

    Json& cfg = root["config"];
    cfg["task_block"] = Json(report.config.task_block);
    cfg["n_threads"] = Json(report.config.n_threads);
    cfg["n_ranks"] = Json(report.config.n_ranks);

    if (report.work.present) {
        Json& work = root["work_model"];
        work["peak_gflops"] = Json(report.work.peak_flops * 1e-9);
        work["peak_gbs"] = Json(report.work.peak_bw * 1e-9);
        Json kernels = Json::object();
        for (std::size_t k = 0; k < util::kernel_count; ++k) {
            const auto& w = report.work.kernels[k];
            if (w.flops_per_item == 0.0 && w.bytes_per_item == 0.0) continue;
            Json jw = Json::object();
            jw["flops_per_item"] = Json(w.flops_per_item);
            jw["bytes_per_item"] = Json(w.bytes_per_item);
            kernels[util::kernel_name(static_cast<util::Kernel>(k))] =
                std::move(jw);
        }
        work["kernels"] = std::move(kernels);
    }

    Json& imb = root["imbalance"];
    imb["max_over_mean"] = Json(report.imbalance.max_over_mean);
    imb["mean_rank_s"] = Json(report.imbalance.mean_rank_s);
    imb["max_rank_s"] = Json(report.imbalance.max_rank_s);
    imb["slowest_rank"] = Json(report.imbalance.slowest_rank);

    Json& wire = root["wire"];
    wire["checked"] = Json(report.wire.checked);
    wire["expected_messages"] = Json(report.wire.expected);
    wire["measured_messages"] = Json(report.wire.measured);
    wire["match"] = Json(report.wire.match);

    Json anomalies = Json::array();
    for (const auto& a : report.anomalies) {
        Json ja = Json::object();
        ja["rank"] = Json(a.rank);
        ja["kernel"] = Json(std::string(util::kernel_name(a.kernel)));
        ja["metric"] = Json(a.metric);
        ja["value"] = Json(a.value);
        ja["reference"] = Json(a.reference);
        ja["factor"] = Json(a.factor);
        anomalies.push_back(std::move(ja));
    }
    root["anomalies"] = std::move(anomalies);

    Json recoveries = Json::array();
    for (const auto& r : report.recoveries) {
        Json e = Json::object();
        e["failed_rank"] = Json(r.failed_rank);
        e["failed_step"] = Json(r.failed_step);
        e["resumed_step"] = Json(r.resumed_step);
        e["survivors"] = Json(r.survivors);
        recoveries.push_back(std::move(e));
    }
    root["recoveries"] = std::move(recoveries);

    Json ranks = Json::array();
    for (const auto& r : report.ranks) {
        Json jr = Json::object();
        jr["rank"] = Json(r.rank);
        jr["epoch_offset_us"] = Json(r.epoch_us);
        jr["step_wall_s"] = Json(r.step_wall_s());

        if (r.attrib.graphs > 0) {
            Json& at = jr["attribution"];
            at["graphs"] = Json(r.attrib.graphs);
            at["cp_s"] = Json(r.attrib.cp_us * 1e-6);
            at["busy_s"] = Json(r.attrib.busy_us * 1e-6);
            at["makespan_s"] = Json(r.attrib.makespan_us * 1e-6);
            at["efficiency"] = Json(r.attrib.efficiency());
            Json ck = Json::object();
            for (std::size_t k = 0; k < util::kernel_count; ++k) {
                if (r.attrib.cp_kernel_us[k] <= 0.0) continue;
                ck[util::kernel_name(static_cast<util::Kernel>(k))] =
                    Json(r.attrib.cp_kernel_us[k] * 1e-6);
            }
            at["cp_kernels"] = std::move(ck);
            Json workers = Json::array();
            for (const double busy : r.attrib.worker_busy_us) {
                Json jw = Json::object();
                jw["busy_s"] = Json(busy * 1e-6);
                jw["idle_s"] =
                    Json(std::max(0.0, r.attrib.makespan_us - busy) * 1e-6);
                workers.push_back(std::move(jw));
            }
            at["workers"] = std::move(workers);
        }

        Json steps = Json::array();
        for (const auto& s : r.steps) {
            Json js = Json::object();
            js["step"] = Json(s.step);
            js["t"] = Json(s.t);
            js["dt"] = Json(s.dt);
            js["dt_local"] = Json(s.dt_local);
            js["dt_reason"] = Json(std::string(dt_reason_name(s.dt_reason)));
            js["start_us"] = Json(s.start_us);
            js["wall_us"] = Json(s.wall_us);
            js["retries"] = Json(s.retries);
            js["remapped"] = Json(s.remapped);
            if (s.graph_workers > 0) {
                js["cp_us"] = Json(s.cp_us);
                js["graph_busy_us"] = Json(s.graph_busy_us);
                js["graph_makespan_us"] = Json(s.graph_makespan_us);
                js["graph_workers"] = Json(s.graph_workers);
            }
            steps.push_back(std::move(js));
        }
        jr["steps"] = std::move(steps);

        if (r.evicted.steps > 0) jr["evicted"] = window_json(r.evicted);

        if (!r.windows.empty()) {
            Json windows = Json::array();
            for (const auto& w : r.windows)
                windows.push_back(window_json(w));
            jr["windows"] = std::move(windows);
        }

        Json kernels = Json::object();
        for (std::size_t k = 0; k < util::kernel_count; ++k) {
            const auto& ks = r.kernels[k];
            if (ks.calls == 0) continue;
            Json jk = Json::object();
            jk["wall_s"] = Json(ks.wall_s);
            jk["virtual_s"] = Json(ks.virtual_s);
            jk["calls"] = Json(ks.calls);
            jk["items"] = Json(static_cast<long>(ks.items));
            if (report.work.present && ks.items > 0 && ks.wall_s > 0.0) {
                const auto& w = report.work.kernels[k];
                const auto n = static_cast<double>(ks.items);
                if (w.flops_per_item > 0.0)
                    jk["gflops"] =
                        Json(n * w.flops_per_item / ks.wall_s * 1e-9);
                if (w.bytes_per_item > 0.0)
                    jk["gbs"] = Json(n * w.bytes_per_item / ks.wall_s * 1e-9);
                const double expect = roofline_seconds(
                    report.work, static_cast<util::Kernel>(k), ks.items);
                if (expect > 0.0)
                    jk["roofline_ratio"] = Json(ks.wall_s / expect);
            }
            kernels[util::kernel_name(static_cast<util::Kernel>(k))] =
                std::move(jk);
        }
        jr["kernels"] = std::move(kernels);

        Json sent = Json::array();
        for (const auto& p : r.sent) {
            Json jp = Json::object();
            jp["peer"] = Json(p.peer);
            jp["messages"] = Json(p.messages);
            jp["reals"] = Json(p.reals);
            sent.push_back(std::move(jp));
        }
        jr["sent"] = std::move(sent);
        ranks.push_back(std::move(jr));
    }
    root["ranks"] = std::move(ranks);
    return root;
}

Json trace_json(const RunReport& report) {
    Json events = Json::array();
    int flow_id = 0;
    for (const auto& r : report.ranks) {
        // Name the track so chrome://tracing shows "rank N", not "tid N".
        Json meta = Json::object();
        meta["name"] = Json("thread_name");
        meta["ph"] = Json("M");
        meta["pid"] = Json(0);
        meta["tid"] = Json(r.rank);
        meta["args"]["name"] =
            Json("rank " + std::to_string(r.rank));
        events.push_back(std::move(meta));
        for (const auto& e : r.trace) {
            Json je = Json::object();
            je["name"] = Json(std::string(util::kernel_name(e.kernel)));
            je["cat"] = Json(util::kernel_is_detail(e.kernel) ? "detail"
                                                              : "kernel");
            je["ph"] = Json("X");
            je["ts"] = Json(e.t0_us);
            je["dur"] = Json(e.dur_us);
            je["pid"] = Json(0);
            je["tid"] = Json(r.rank);
            events.push_back(std::move(je));
        }
        // Flow arrows along the critical path: an "s" -> "f" pair between
        // each consecutive pair of critical tasks of the same graph, so
        // the bounding chain is visible as arrows over the task spans.
        for (std::size_t i = 0; i + 1 < r.critical.size(); ++i) {
            const auto& a = r.critical[i];
            const auto& b = r.critical[i + 1];
            if (a.chain != b.chain) continue;
            const int id = flow_id++;
            Json js = Json::object();
            js["name"] = Json("critical");
            js["cat"] = Json("critical");
            js["ph"] = Json("s");
            js["id"] = Json(id);
            js["ts"] = Json(a.t0_us + a.dur_us);
            js["pid"] = Json(0);
            js["tid"] = Json(r.rank);
            events.push_back(std::move(js));
            Json jf = Json::object();
            jf["name"] = Json("critical");
            jf["cat"] = Json("critical");
            jf["ph"] = Json("f");
            jf["bp"] = Json("e");
            jf["id"] = Json(id);
            jf["ts"] = Json(b.t0_us);
            jf["pid"] = Json(0);
            jf["tid"] = Json(r.rank);
            events.push_back(std::move(jf));
        }
    }
    Json root = Json::object();
    root["traceEvents"] = std::move(events);
    root["displayTimeUnit"] = Json("ms");
    return root;
}

namespace {

void append_line(std::string& out, const char* fmt, ...) {
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    out += buf;
    out += '\n';
}

} // namespace

std::string summary_table(const RunReport& report) {
    // Aggregate the per-kernel breakdown over ranks.
    std::array<util::KernelStats, util::kernel_count> total{};
    for (const auto& r : report.ranks)
        for (std::size_t k = 0; k < util::kernel_count; ++k) {
            total[k].wall_s += r.kernels[k].wall_s;
            total[k].virtual_s += r.kernels[k].virtual_s;
            total[k].calls += r.kernels[k].calls;
        }
    double overall = 0.0;
    for (std::size_t k = 0; k < util::kernel_count; ++k)
        if (!util::kernel_is_detail(static_cast<util::Kernel>(k)))
            overall += total[k].total_s();

    std::string out;
    append_line(out, "telemetry: %s [%s, %d rank%s] steps=%ld t=%.6g wall=%.3fs",
                report.label.c_str(), report.mode.c_str(), report.n_ranks,
                report.n_ranks == 1 ? "" : "s", report.steps, report.t_final,
                report.wall_s);
    // The paper's Table II rows, in its order, over the aggregate slots.
    const util::Kernel table2[] = {
        util::Kernel::getq,    util::Kernel::getacc, util::Kernel::getdt,
        util::Kernel::getgeom, util::Kernel::getforce, util::Kernel::getpc,
    };
    append_line(out, "  %-14s %10.4fs %7s", "Overall", overall, "100.0%");
    for (const auto k : table2) {
        const double s = total[static_cast<std::size_t>(k)].total_s();
        append_line(out, "  %-14s %10.4fs %6.1f%%",
                    std::string(util::kernel_table2_label(k)).c_str(), s,
                    overall > 0.0 ? 100.0 * s / overall : 0.0);
    }
    // Task-graph attribution: aggregate over ranks, report the critical
    // path vs busy time, the efficiency, and the kernels that bound it.
    {
        RankAttribution agg;
        for (const auto& r : report.ranks) {
            agg.graphs += r.attrib.graphs;
            agg.cp_us += r.attrib.cp_us;
            agg.busy_us += r.attrib.busy_us;
            agg.makespan_us += r.attrib.makespan_us;
            for (std::size_t k = 0; k < util::kernel_count; ++k)
                agg.cp_kernel_us[k] += r.attrib.cp_kernel_us[k];
            if (agg.worker_busy_us.size() < r.attrib.worker_busy_us.size())
                agg.worker_busy_us.resize(r.attrib.worker_busy_us.size(), 0.0);
            for (std::size_t w = 0; w < r.attrib.worker_busy_us.size(); ++w)
                agg.worker_busy_us[w] += r.attrib.worker_busy_us[w];
        }
        if (agg.graphs > 0) {
            append_line(out,
                        "  graphs: %ld runs, critical path %.4fs of %.4fs "
                        "busy (makespan %.4fs, efficiency %.2f)",
                        agg.graphs, agg.cp_us * 1e-6, agg.busy_us * 1e-6,
                        agg.makespan_us * 1e-6, agg.efficiency());
            // Top-3 critical kernels by critical-path share.
            std::array<std::size_t, util::kernel_count> order{};
            for (std::size_t k = 0; k < util::kernel_count; ++k) order[k] = k;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return agg.cp_kernel_us[a] > agg.cp_kernel_us[b];
                      });
            std::string top;
            for (std::size_t i = 0; i < 3; ++i) {
                const std::size_t k = order[i];
                if (agg.cp_kernel_us[k] <= 0.0) break;
                char buf[96];
                std::snprintf(
                    buf, sizeof buf, "%s%s %.1f%%", top.empty() ? "" : "  ",
                    std::string(
                        util::kernel_name(static_cast<util::Kernel>(k)))
                        .c_str(),
                    agg.cp_us > 0.0 ? 100.0 * agg.cp_kernel_us[k] / agg.cp_us
                                    : 0.0);
                top += buf;
            }
            if (!top.empty())
                append_line(out, "  critical kernels: %s", top.c_str());
        }
    }
    for (const auto& a : report.anomalies)
        append_line(out,
                    "  anomaly: rank %d %s %s %.3gx reference "
                    "(%.3g vs %.3g)  ** SLOW **",
                    a.rank, std::string(util::kernel_name(a.kernel)).c_str(),
                    a.metric.c_str(), a.factor, a.value, a.reference);
    if (report.mode == "distributed") {
        const auto at = [&](util::Kernel k) {
            return total[static_cast<std::size_t>(k)].total_s();
        };
        append_line(out,
                    "  halo %.4fs (pack %.4fs wait %.4fs unpack %.4fs)  "
                    "reduce %.4fs (wait %.4fs)",
                    at(util::Kernel::halo), at(util::Kernel::halo_pack),
                    at(util::Kernel::halo_wait),
                    at(util::Kernel::halo_unpack), at(util::Kernel::reduce),
                    at(util::Kernel::reduce_wait));
        append_line(out,
                    "  imbalance max/mean = %.3f (slowest rank %d, "
                    "max %.4fs, mean %.4fs)",
                    report.imbalance.max_over_mean,
                    report.imbalance.slowest_rank, report.imbalance.max_rank_s,
                    report.imbalance.mean_rank_s);
        if (report.wire.checked)
            append_line(out, "  wire: %lld messages measured, %lld expected%s",
                        report.wire.measured, report.wire.expected,
                        report.wire.match ? "" : "  ** MISMATCH **");
    }
    for (const auto& r : report.recoveries)
        append_line(out,
                    "  recovery: rank %d failed at step %ld, resumed at "
                    "step %ld with %d survivors",
                    r.failed_rank, r.failed_step, r.resumed_step, r.survivors);
    return out;
}

void write_outputs(const Options& opts, const RunReport& report) {
    if (!opts.report.empty()) write_json_file(opts.report, to_json(report));
    if (!opts.trace.empty()) write_json_file(opts.trace, trace_json(report));
    if (opts.summary) {
        const std::string table = summary_table(report);
        std::fputs(table.c_str(), stdout);
        std::fflush(stdout);
    }
}

std::vector<Real> pack_rank(const RankRecord& rank) {
    std::vector<Real> buf;
    buf.reserve(3 + rank.steps.size() * 13 + 1 + util::kernel_count * 4 + 5 +
                util::kernel_count + rank.attrib.worker_busy_us.size());
    buf.push_back(static_cast<Real>(rank.rank));
    buf.push_back(rank.epoch_us);
    buf.push_back(static_cast<Real>(rank.steps.size()));
    for (const auto& s : rank.steps) {
        buf.push_back(static_cast<Real>(s.step));
        buf.push_back(s.t);
        buf.push_back(s.dt);
        buf.push_back(s.dt_local);
        buf.push_back(static_cast<Real>(s.dt_reason));
        buf.push_back(s.start_us);
        buf.push_back(s.wall_us);
        buf.push_back(static_cast<Real>(s.retries));
        buf.push_back(s.remapped ? 1.0 : 0.0);
        buf.push_back(s.cp_us);
        buf.push_back(s.graph_busy_us);
        buf.push_back(s.graph_makespan_us);
        buf.push_back(static_cast<Real>(s.graph_workers));
    }
    buf.push_back(static_cast<Real>(util::kernel_count));
    for (const auto& ks : rank.kernels) {
        buf.push_back(ks.wall_s);
        buf.push_back(ks.virtual_s);
        buf.push_back(static_cast<Real>(ks.calls));
        buf.push_back(static_cast<Real>(ks.items));
    }
    buf.push_back(static_cast<Real>(rank.attrib.graphs));
    buf.push_back(rank.attrib.cp_us);
    buf.push_back(rank.attrib.busy_us);
    buf.push_back(rank.attrib.makespan_us);
    for (const double v : rank.attrib.cp_kernel_us) buf.push_back(v);
    buf.push_back(static_cast<Real>(rank.attrib.worker_busy_us.size()));
    for (const double v : rank.attrib.worker_busy_us) buf.push_back(v);
    // Live-monitoring extension (appended so the codec layout stays a
    // strict prefix of the historical one): the max_steps ring's evicted
    // aggregate, then the retained windows.
    const auto append_window = [&](const WindowRecord& w) {
        const auto flat = pack_window(w);
        buf.insert(buf.end(), flat.begin(), flat.end());
    };
    append_window(rank.evicted);
    buf.push_back(static_cast<Real>(rank.windows.size()));
    for (const auto& w : rank.windows) append_window(w);
    return buf;
}

RankRecord unpack_rank(const std::vector<Real>& buf) {
    RankRecord out;
    std::size_t i = 0;
    const auto next = [&]() -> Real {
        util::require(i < buf.size(), "telemetry: truncated rank record");
        return buf[i++];
    };
    out.rank = static_cast<int>(next());
    out.epoch_us = next();
    const auto n_steps = static_cast<std::size_t>(next());
    out.steps.reserve(n_steps);
    for (std::size_t s = 0; s < n_steps; ++s) {
        StepRecord rec;
        rec.step = static_cast<long>(next());
        rec.t = next();
        rec.dt = next();
        rec.dt_local = next();
        rec.dt_reason = static_cast<int>(next());
        rec.start_us = next();
        rec.wall_us = next();
        rec.retries = static_cast<int>(next());
        rec.remapped = next() != 0.0;
        rec.cp_us = next();
        rec.graph_busy_us = next();
        rec.graph_makespan_us = next();
        rec.graph_workers = static_cast<int>(next());
        out.steps.push_back(rec);
    }
    const auto n_kernels = static_cast<std::size_t>(next());
    util::require(n_kernels == util::kernel_count,
                  "telemetry: kernel-count mismatch in rank record");
    for (auto& ks : out.kernels) {
        ks.wall_s = next();
        ks.virtual_s = next();
        ks.calls = static_cast<long>(next());
        ks.items = static_cast<long long>(next());
    }
    out.attrib.graphs = static_cast<long>(next());
    out.attrib.cp_us = next();
    out.attrib.busy_us = next();
    out.attrib.makespan_us = next();
    for (auto& v : out.attrib.cp_kernel_us) v = next();
    const auto n_workers = static_cast<std::size_t>(next());
    out.attrib.worker_busy_us.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w)
        out.attrib.worker_busy_us.push_back(next());
    const auto next_window = [&] {
        util::require(i + window_reals <= buf.size(),
                      "telemetry: truncated rank record");
        const std::span<const Real> flat(buf.data() + i, window_reals);
        i += window_reals;
        return unpack_window(flat);
    };
    out.evicted = next_window();
    const auto n_windows = static_cast<std::size_t>(next());
    out.windows.reserve(n_windows);
    for (std::size_t w = 0; w < n_windows; ++w)
        out.windows.push_back(next_window());
    util::require(i == buf.size(), "telemetry: oversized rank record");
    return out;
}

} // namespace bookleaf::obs
