#include "obs/live.hpp"

#include <algorithm>
#include <cstddef>

namespace bookleaf::obs {

// ---------------------------------------------------------------------------
// Window records
// ---------------------------------------------------------------------------

void fold_step(WindowRecord& w, const StepRecord& s) {
    if (w.steps == 0) w.first_step = s.step;
    w.last_step = s.step;
    ++w.steps;
    w.t = s.t;
    w.wall_us += s.wall_us;
    w.max_step_us = std::max(w.max_step_us, s.wall_us);
    w.retries += s.retries;
    if (s.remapped) ++w.remaps;
}

std::vector<Real> pack_window(const WindowRecord& w) {
    std::vector<Real> buf;
    buf.reserve(window_reals);
    buf.push_back(static_cast<Real>(w.rank));
    buf.push_back(static_cast<Real>(w.index));
    buf.push_back(static_cast<Real>(w.first_step));
    buf.push_back(static_cast<Real>(w.last_step));
    buf.push_back(static_cast<Real>(w.steps));
    buf.push_back(w.t);
    buf.push_back(w.wall_us);
    buf.push_back(w.max_step_us);
    buf.push_back(w.halo_wait_us);
    buf.push_back(w.reduce_wait_us);
    buf.push_back(static_cast<Real>(w.retries));
    buf.push_back(static_cast<Real>(w.remaps));
    buf.push_back(static_cast<Real>(w.items));
    return buf;
}

WindowRecord unpack_window(std::span<const Real> buf) {
    util::require(buf.size() == window_reals,
                  "live: malformed window record on the wire");
    WindowRecord w;
    std::size_t i = 0;
    w.rank = static_cast<int>(buf[i++]);
    w.index = static_cast<long>(buf[i++]);
    w.first_step = static_cast<long>(buf[i++]);
    w.last_step = static_cast<long>(buf[i++]);
    w.steps = static_cast<long>(buf[i++]);
    w.t = buf[i++];
    w.wall_us = buf[i++];
    w.max_step_us = buf[i++];
    w.halo_wait_us = buf[i++];
    w.reduce_wait_us = buf[i++];
    w.retries = static_cast<long>(buf[i++]);
    w.remaps = static_cast<long>(buf[i++]);
    w.items = static_cast<long long>(buf[i++]);
    return w;
}

Json window_json(const WindowRecord& w) {
    Json j = Json::object();
    j["rank"] = w.rank;
    j["index"] = static_cast<long long>(w.index);
    j["first_step"] = static_cast<long long>(w.first_step);
    j["last_step"] = static_cast<long long>(w.last_step);
    j["steps"] = static_cast<long long>(w.steps);
    j["t"] = w.t;
    j["wall_us"] = w.wall_us;
    j["max_step_us"] = w.max_step_us;
    j["mean_step_us"] = w.mean_step_us();
    j["halo_wait_us"] = w.halo_wait_us;
    j["reduce_wait_us"] = w.reduce_wait_us;
    j["retries"] = static_cast<long long>(w.retries);
    j["remaps"] = static_cast<long long>(w.remaps);
    j["items"] = static_cast<long long>(w.items);
    j["items_per_s"] = w.items_per_s();
    return j;
}

WindowFolder::WindowFolder(int rank, long window_steps,
                           const util::Profiler* profiler)
    : rank_(rank), every_(window_steps), profiler_(profiler) {
    util::require(every_ > 0, "live: window_steps must be positive");
    begin_window();
}

void WindowFolder::begin_window() {
    cur_ = WindowRecord{};
    cur_.rank = rank_;
    cur_.index = produced_;
    if (profiler_ != nullptr) {
        base_ = profiler_->snapshot();
        have_base_ = true;
    }
}

std::optional<WindowRecord> WindowFolder::add(const StepRecord& s) {
    fold_step(cur_, s);
    if (cur_.steps < every_) return std::nullopt;
    if (have_base_) {
        // The blocked-on-peers share and the swept-entity throughput come
        // from the profiler delta over the window, not per-step fields.
        const auto now = profiler_->snapshot();
        const auto delta_wall = [&](util::Kernel k) {
            const auto i = static_cast<std::size_t>(k);
            return (now[i].wall_s - base_[i].wall_s) * 1e6;
        };
        cur_.halo_wait_us = delta_wall(util::Kernel::halo_wait);
        cur_.reduce_wait_us = delta_wall(util::Kernel::reduce_wait);
        long long items = 0;
        for (std::size_t i = 0; i < util::kernel_count; ++i) {
            if (util::kernel_is_detail(static_cast<util::Kernel>(i)))
                continue; // detail slots refine aggregates already counted
            items += now[i].items - base_[i].items;
        }
        cur_.items = items;
    }
    WindowRecord done = cur_;
    ++produced_;
    begin_window();
    return done;
}

// ---------------------------------------------------------------------------
// Bounded step retention
// ---------------------------------------------------------------------------

void StepRing::push(const StepRecord& s) {
    ++total_;
    steps_.push_back(s);
    while (capacity_ > 0 &&
           steps_.size() > static_cast<std::size_t>(capacity_)) {
        fold_step(evicted_, steps_.front());
        steps_.pop_front();
    }
}

// ---------------------------------------------------------------------------
// Rank-0 assembly
// ---------------------------------------------------------------------------

Imbalance window_imbalance(const std::vector<WindowRecord>& ranks) {
    Imbalance imb;
    if (ranks.empty()) return imb;
    double sum = 0.0, max = 0.0;
    for (const auto& w : ranks) {
        const double s = w.busy_us() * 1e-6;
        sum += s;
        if (imb.slowest_rank < 0 || s > max) {
            max = s;
            imb.slowest_rank = w.rank;
        }
    }
    imb.mean_rank_s = sum / static_cast<double>(ranks.size());
    imb.max_rank_s = max;
    imb.max_over_mean = imb.mean_rank_s > 0.0 ? max / imb.mean_rank_s : 1.0;
    return imb;
}

std::vector<LiveWindow> LiveAssembler::add(WindowRecord w) {
    util::require(w.rank >= 0 &&
                      static_cast<std::size_t>(w.rank) < per_rank_.size(),
                  "live: window from out-of-range rank");
    per_rank_[static_cast<std::size_t>(w.rank)].push_back(std::move(w));
    std::vector<LiveWindow> done;
    for (;;) {
        bool complete = true;
        for (const auto& q : per_rank_)
            if (q.empty()) {
                complete = false;
                break;
            }
        if (!complete) return done;
        LiveWindow lw;
        lw.index = completed_;
        lw.ranks.reserve(per_rank_.size());
        for (auto& q : per_rank_) {
            lw.ranks.push_back(std::move(q.front()));
            q.pop_front();
        }
        lw.imbalance = window_imbalance(lw.ranks);
        ++completed_;
        done.push_back(std::move(lw));
    }
}

// ---------------------------------------------------------------------------
// NDJSON stream
// ---------------------------------------------------------------------------

LiveStream::LiveStream(const std::string& path) {
    if (path.empty()) return;
    out_.open(path, std::ios::trunc);
    util::require(out_.is_open(),
                  "live: cannot open stream for writing: " + path);
}

void LiveStream::emit(Json event) {
    const std::lock_guard lock(mutex_);
    if (!out_.is_open()) return;
    event["seq"] = static_cast<long long>(seq_);
    ++seq_;
    // Compact single-line form + per-line flush: a killed run keeps every
    // event already emitted (crash survivability is the point).
    out_ << event.dump(0) << '\n';
    out_.flush();
}

long LiveStream::events() const {
    const std::lock_guard lock(mutex_);
    return seq_;
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

Watchdog::Watchdog(int n_ranks, double factor, double grace_ms, bool escalate)
    : n_ranks_(n_ranks), factor_(factor), grace_ms_(grace_ms),
      escalate_(escalate), epoch_(std::chrono::steady_clock::now()),
      steps_(static_cast<std::size_t>(n_ranks)),
      poisoned_(static_cast<std::size_t>(n_ranks)),
      last_arrival_ms_(static_cast<std::size_t>(n_ranks), 0.0),
      ewma_ms_(static_cast<std::size_t>(n_ranks), 0.0),
      windows_(static_cast<std::size_t>(n_ranks), 0),
      flagged_(static_cast<std::size_t>(n_ranks), false) {
    util::require(n_ranks > 0, "watchdog: n_ranks must be positive");
    util::require(factor > 0.0, "watchdog: factor must be positive");
    util::require(grace_ms >= 0.0, "watchdog: grace must be >= 0");
    for (auto& s : steps_) s.store(-1, std::memory_order_relaxed);
    for (auto& p : poisoned_) p.store(false, std::memory_order_relaxed);
}

bool Watchdog::note_step(int rank, long step) {
    const auto r = static_cast<std::size_t>(rank);
    steps_[r].store(step, std::memory_order_relaxed);
    return poisoned_[r].load(std::memory_order_relaxed);
}

double Watchdog::now_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void Watchdog::note_window(int rank) { note_window_at(rank, now_ms()); }

void Watchdog::note_window_at(int rank, double now_ms) {
    const std::lock_guard lock(mutex_);
    const auto r = static_cast<std::size_t>(rank);
    const double gap = now_ms - last_arrival_ms_[r];
    // EWMA of the inter-arrival gap (the first gap seeds it); last_arrival
    // starts at 0 = run start, so the first window's gap is its latency
    // from launch — a fair cadence estimate for detection purposes.
    ewma_ms_[r] = ewma_ms_[r] <= 0.0 ? gap : 0.5 * ewma_ms_[r] + 0.5 * gap;
    last_arrival_ms_[r] = now_ms;
    ++windows_[r];
    flagged_[r] = false; // arrivals resumed: the rank may be flagged again
}

std::vector<Watchdog::Stall> Watchdog::check(double now_ms) {
    const std::lock_guard lock(mutex_);
    // Fallback cadence for ranks with no arrivals yet: the mean EWMA of
    // the ranks that have one. With no arrivals anywhere there is no
    // cadence evidence at all — nothing can be flagged yet.
    double ewma_sum = 0.0;
    int ewma_n = 0;
    for (int r = 0; r < n_ranks_; ++r)
        if (ewma_ms_[static_cast<std::size_t>(r)] > 0.0) {
            ewma_sum += ewma_ms_[static_cast<std::size_t>(r)];
            ++ewma_n;
        }
    std::vector<Stall> stalls;
    if (ewma_n == 0) return stalls;
    for (int r = 0; r < n_ranks_; ++r) {
        const auto i = static_cast<std::size_t>(r);
        if (flagged_[i]) continue; // reported once until arrivals resume
        const double basis =
            ewma_ms_[i] > 0.0 ? ewma_ms_[i]
                              : ewma_sum / static_cast<double>(ewma_n);
        const double threshold = factor_ * basis + grace_ms_;
        const double silent = now_ms - last_arrival_ms_[i];
        if (silent <= threshold) continue;
        flagged_[i] = true;
        Stall s;
        s.rank = r;
        s.last_step = steps_[i].load(std::memory_order_relaxed);
        s.windows = windows_[i];
        s.silent_ms = silent;
        s.threshold_ms = threshold;
        if (escalate_) {
            poisoned_[i].store(true, std::memory_order_relaxed);
            s.escalated = true;
        }
        stalls.push_back(s);
    }
    return stalls;
}

std::vector<Watchdog::Stall> Watchdog::check_now() { return check(now_ms()); }

long Watchdog::last_step(int rank) const {
    return steps_[static_cast<std::size_t>(rank)].load(
        std::memory_order_relaxed);
}

WatchdogSession::WatchdogSession(
    Watchdog& dog, double poll_ms,
    std::function<void(const Watchdog::Stall&)> on_stall)
    : dog_(dog), on_stall_(std::move(on_stall)) {
    const auto period = std::chrono::duration<double, std::milli>(
        std::max(poll_ms, 1.0));
    thread_ = std::thread([this, period] {
        std::unique_lock lock(mutex_);
        while (!stop_) {
            cv_.wait_for(lock, period, [this] { return stop_; });
            if (stop_) return;
            lock.unlock();
            for (const auto& stall : dog_.check_now()) on_stall_(stall);
            lock.lock();
        }
    });
}

void WatchdogSession::stop() {
    {
        const std::lock_guard lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
}

WatchdogSession::~WatchdogSession() { stop(); }

// ---------------------------------------------------------------------------
// Event builders
// ---------------------------------------------------------------------------

Json run_start_event(const std::string& label, int n_ranks,
                     const Options& opts) {
    Json ev;
    ev["event"] = "run_start";
    ev["schema"] = "bookleaf.live/1";
    ev["label"] = label;
    ev["n_ranks"] = n_ranks;
    ev["window_steps"] = static_cast<long long>(opts.window_steps);
    ev["watchdog_factor"] = opts.watchdog_factor;
    return ev;
}

std::vector<LiveWindow> stream_window(LiveStream& out,
                                      LiveAssembler& assembler, int attempt,
                                      WindowRecord w) {
    Json ev;
    ev["event"] = "window";
    ev["attempt"] = attempt;
    ev["record"] = window_json(w);
    out.emit(std::move(ev));
    auto done = assembler.add(std::move(w));
    for (const auto& lw : done) {
        Json iev;
        iev["event"] = "imbalance";
        iev["attempt"] = attempt;
        iev["window"] = lw.index;
        iev["max_over_mean"] = lw.imbalance.max_over_mean;
        iev["mean_rank_s"] = lw.imbalance.mean_rank_s;
        iev["max_rank_s"] = lw.imbalance.max_rank_s;
        iev["slowest_rank"] = lw.imbalance.slowest_rank;
        out.emit(std::move(iev));
    }
    return done;
}

Json stall_event(int attempt, const Watchdog::Stall& stall,
                 const Watchdog& dog,
                 const std::vector<typhon::ChannelBacklog>& backlog) {
    Json ev;
    ev["event"] = "stall";
    ev["attempt"] = attempt;
    ev["rank"] = stall.rank;
    ev["last_step"] = stall.last_step;
    ev["windows"] = stall.windows;
    ev["silent_ms"] = stall.silent_ms;
    ev["threshold_ms"] = stall.threshold_ms;
    ev["escalated"] = stall.escalated;
    Json last = Json::array();
    for (int r = 0; r < dog.n_ranks(); ++r) last.push_back(dog.last_step(r));
    ev["last_steps"] = std::move(last);
    Json channels = Json::array();
    for (const auto& c : backlog) {
        Json cj;
        cj["src"] = c.src;
        cj["dst"] = c.dst;
        cj["tag"] = c.tag;
        cj["pending"] = c.pending;
        cj["held"] = c.held;
        channels.push_back(std::move(cj));
    }
    ev["backlog"] = std::move(channels);
    return ev;
}

Json recovery_event(int attempt, const RecoveryEvent& r) {
    Json ev;
    ev["event"] = "recovery";
    ev["attempt"] = attempt;
    ev["failed_rank"] = r.failed_rank;
    ev["failed_step"] = r.failed_step;
    ev["resumed_step"] = r.resumed_step;
    ev["survivors"] = r.survivors;
    return ev;
}

Json run_end_event(long steps, double t_final, double wall_s, long windows,
                   long stalls, long recoveries) {
    Json ev;
    ev["event"] = "run_end";
    ev["steps"] = steps;
    ev["t_final"] = t_final;
    ev["wall_s"] = wall_s;
    ev["windows"] = windows;
    ev["stalls"] = stalls;
    ev["recoveries"] = recoveries;
    return ev;
}

} // namespace bookleaf::obs
