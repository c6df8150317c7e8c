#include "typhon/typhon.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <tuple>

#include "typhon/fault.hpp"
#include "util/error.hpp"
#include "util/profiler.hpp"

namespace bookleaf::typhon {

namespace detail {

void Hub::send(int src, int dst, int tag, std::vector<Real> payload) {
    // Fault hooks run outside the lock: the injector may sleep (a slowed
    // rank) or throw (a message-count kill), and the hold decision is a
    // pure function of the sender's own ordinal.
    const bool hold = fault_ != nullptr && fault_->active() &&
                      fault_->on_send(src);
    {
        const std::lock_guard lock(mutex_);
        traffic_.messages += 1;
        traffic_.reals += static_cast<long long>(payload.size());
        auto& pair = peer_tally_[{src, dst}];
        pair.messages += 1;
        pair.reals += static_cast<long long>(payload.size());
        const Channel k{src, dst, tag};
        // A held message — or any message behind one — goes to the shadow
        // queue, keeping per-channel FIFO order intact. Blocking recv
        // promotes the backlog; try_recv never sees it.
        if (hold || (!held_.empty() && [&] {
                const auto it = held_.find(k);
                return it != held_.end() && !it->second.empty();
            }())) {
            held_[k].push_back(std::move(payload));
        } else {
            queues_[k].push_back(std::move(payload));
        }
    }
    cv_.notify_all();
}

std::optional<std::vector<Real>> Hub::try_recv(int src, int dst, int tag) {
    const std::lock_guard lock(mutex_);
    const auto it = queues_.find(Channel{src, dst, tag});
    if (it == queues_.end() || it->second.empty()) return std::nullopt;
    std::vector<Real> out = std::move(it->second.front());
    it->second.pop_front();
    return out;
}

std::vector<Real> Hub::recv(int src, int dst, int tag) {
    std::unique_lock lock(mutex_);
    const Channel k{src, dst, tag};
    const auto promote_held = [&] {
        // A blocking receive ends any injected delay on its channel:
        // promote the whole held backlog (in order) so FIFO delivery is
        // exact and no message can be stranded behind a hold.
        const auto ht = held_.find(k);
        if (ht == held_.end() || ht->second.empty()) return;
        auto& q = queues_[k];
        for (auto& m : ht->second) q.push_back(std::move(m));
        ht->second.clear();
    };
    cv_.wait(lock, [&] {
        if (aborted_) return true;
        promote_held();
        const auto it = queues_.find(k);
        return it != queues_.end() && !it->second.empty();
    });
    // Prefer delivering a message that did arrive even after an abort;
    // only a wait that can never be satisfied turns into the error.
    promote_held();
    const auto it = queues_.find(k);
    if (it == queues_.end() || it->second.empty()) throw AbortError();
    std::vector<Real> out = std::move(it->second.front());
    it->second.pop_front();
    return out;
}

bool Hub::drained() {
    const std::lock_guard lock(mutex_);
    for (const auto& [channel, queue] : queues_)
        if (!queue.empty()) return false;
    // Held messages are undelivered too: a delay plan must not be able to
    // turn the stranded-message check into a false pass.
    for (const auto& [channel, queue] : held_)
        if (!queue.empty()) return false;
    return true;
}

std::vector<ChannelBacklog> Hub::backlog() {
    const std::lock_guard lock(mutex_);
    // Merge the visible and held queues per channel, then sort: a stall
    // diagnostic should print deterministically for a given Hub state.
    std::map<std::tuple<int, int, int>, ChannelBacklog> merged;
    const auto slot = [&](const Channel& c) -> ChannelBacklog& {
        auto& b = merged[{c.src, c.dst, c.tag}];
        b.src = c.src;
        b.dst = c.dst;
        b.tag = c.tag;
        return b;
    };
    for (const auto& [channel, queue] : queues_)
        if (!queue.empty())
            slot(channel).pending = static_cast<long>(queue.size());
    for (const auto& [channel, queue] : held_)
        if (!queue.empty())
            slot(channel).held = static_cast<long>(queue.size());
    std::vector<ChannelBacklog> out;
    out.reserve(merged.size());
    for (const auto& [key, b] : merged) out.push_back(b);
    return out;
}

Traffic Hub::traffic() {
    const std::lock_guard lock(mutex_);
    Traffic out = traffic_;
    out.peers.clear();
    for (const auto& [key, pair] : peer_tally_)
        out.peers.push_back({key.first, key.second, pair.messages,
                             pair.reals});
    return out;
}

void Hub::abort() {
    {
        const std::lock_guard lock(mutex_);
        aborted_ = true;
    }
    cv_.notify_all();
}

long Collective::post(int rank, Real value, Op op) {
    std::unique_lock lock(mutex_);
    values_[static_cast<std::size_t>(rank)] = value;
    const long gen = generation_;
    if (++arrived_ == n_ranks_) {
        // Last arrival reduces in rank order — deterministic result for
        // any arrival order (bitwise identity across schedules rests on
        // this).
        Real r = values_[0];
        for (int i = 1; i < n_ranks_; ++i) {
            const Real v = values_[static_cast<std::size_t>(i)];
            switch (op) {
            case Op::min: r = std::min(r, v); break;
            case Op::max: r = std::max(r, v); break;
            case Op::sum: r += v; break;
            }
        }
        result_ = r;
        arrived_ = 0;
        ++generation_;
        cv_.notify_all();
    }
    return gen;
}

bool Collective::poll(long generation) {
    const std::lock_guard lock(mutex_);
    return generation_ != generation;
}

Real Collective::finish(long generation) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return aborted_ || generation_ != generation; });
    if (generation_ == generation) throw AbortError();
    // result_ still holds this generation's value: the next generation
    // cannot complete before every rank of this one deposits again, which
    // happens only after their finish().
    return result_;
}

void Collective::abort() {
    {
        const std::lock_guard lock(mutex_);
        aborted_ = true;
    }
    cv_.notify_all();
}

Real Collective::allreduce(int rank, Real value, Op op) {
    return finish(post(rank, value, op));
}

void Collective::barrier(int rank) { (void)allreduce(rank, 0.0, Op::sum); }

std::vector<Real> Collective::allgather(int rank, Real value) {
    std::unique_lock lock(mutex_);
    values_[static_cast<std::size_t>(rank)] = value;
    const long gen = generation_;
    if (++arrived_ == n_ranks_) {
        gathered_ = values_;
        arrived_ = 0;
        ++generation_;
        cv_.notify_all();
    } else {
        cv_.wait(lock, [&] { return aborted_ || generation_ != gen; });
        if (generation_ == gen) throw AbortError();
    }
    return gathered_;
}

} // namespace detail

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

bool Request::test() {
    if (!state_ || state_->done) return true;
    if (auto msg = state_->transport->try_recv(state_->peer, state_->self,
                                              state_->tag)) {
        state_->payload = std::move(*msg);
        state_->done = true;
    }
    return state_->done;
}

void Request::wait() {
    if (!state_ || state_->done) return;
    state_->payload =
        state_->transport->recv(state_->peer, state_->self, state_->tag);
    state_->done = true;
}

const std::vector<Real>& Request::data() const {
    static const std::vector<Real> empty;
    if (!state_) return empty;
    util::require(state_->done,
                  "typhon::Request::data: operation not complete (call "
                  "test/wait first)");
    return state_->payload;
}

void wait_all(std::span<Request> requests) {
    // Requests sharing a (src, dst, tag) channel match that channel's
    // FIFO in posting (span) order, so the earliest pending request owns
    // the next message to arrive. Two rules enforce that: a request is
    // never test()ed while an earlier same-channel request is still
    // pending (the message could land between the two polls and be
    // stolen), and blocking always happens on the first pending request.
    const auto same_channel = [](const Request::State* a,
                                 const Request::State* b) {
        return a->transport == b->transport && a->peer == b->peer &&
               a->self == b->self && a->tag == b->tag;
    };
    for (;;) {
        Request* first_pending = nullptr;
        std::vector<const Request::State*> pending_channels;
        for (auto& r : requests) {
            if (r.done()) continue;
            bool held_back = false;
            for (const auto* st : pending_channels)
                if (same_channel(st, r.state_.get())) {
                    held_back = true;
                    break;
                }
            if (!held_back && r.test()) continue;
            pending_channels.push_back(r.state_.get());
            if (first_pending == nullptr) first_pending = &r;
        }
        if (first_pending == nullptr) return;
        first_pending->wait();
    }
}

void Comm::set_step(int step) {
    if (step_slot_ != nullptr)
        step_slot_->store(step, std::memory_order_relaxed);
    if (fault_ != nullptr && fault_->active()) fault_->on_step(rank_, step);
}

Request Comm::isend(int dst, int tag, std::span<const Real> data) {
    // Buffered-eager transport: the payload is copied into the transport
    // at post time, so the send request is born complete — the null
    // Request (done, empty payload) represents it exactly, without
    // allocating per-send state nothing would ever read.
    transport_->send(rank_, dst, tag, std::vector<Real>(data.begin(), data.end()));
    return Request();
}

Request Comm::irecv(int src, int tag) {
    auto state = std::make_shared<Request::State>();
    state->transport = transport_;
    state->peer = src;
    state->self = rank_;
    state->tag = tag;
    return Request(std::move(state));
}

// ---------------------------------------------------------------------------
// Nonblocking collectives
// ---------------------------------------------------------------------------

bool CollRequest::test() {
    if (done_ || coll_ == nullptr) return true;
    if (!coll_->poll(generation_)) return false;
    value_ = coll_->finish(generation_); // completed: returns immediately
    done_ = true;
    return true;
}

Real CollRequest::wait() {
    if (!done_ && coll_ != nullptr) {
        value_ = coll_->finish(generation_);
        done_ = true;
    }
    return value_;
}

Traffic run(int n_ranks, const std::function<void(Comm&)>& rank_fn,
            FaultInjector* fault) {
    util::require(n_ranks > 0, "typhon::run: n_ranks must be positive");
    detail::Hub hub(n_ranks, fault);
    detail::Collective coll(n_ranks);
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n_ranks));
    // Last step each rank reported through Comm::set_step (-1 = never):
    // failure reports name the step the dead rank was in.
    std::vector<std::atomic<int>> steps(static_cast<std::size_t>(n_ranks));
    for (auto& s : steps) s.store(-1, std::memory_order_relaxed);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n_ranks));
    for (int r = 0; r < n_ranks; ++r) {
        threads.emplace_back([&, r] {
            Comm comm(r, &hub, &coll, fault,
                      &steps[static_cast<std::size_t>(r)]);
            try {
                rank_fn(comm);
            } catch (...) {
                errors[static_cast<std::size_t>(r)] = std::current_exception();
                // Wake peers blocked on this rank's (now never-coming)
                // traffic or rendezvous arrival, so the join below cannot
                // hang; they unwind with AbortError, which is filtered
                // out in favour of this original error.
                hub.abort();
                coll.abort();
            }
        });
    }
    for (auto& t : threads) t.join();
    // Surface the original failure — wrapped in a RankFailure naming the
    // rank and step — never a secondary AbortError a peer picked up while
    // being unblocked (those only exist because some rank died first).
    const auto is_abort = [](const std::exception_ptr& e) {
        try {
            std::rethrow_exception(e);
        } catch (const detail::AbortError&) {
            return true;
        } catch (...) {
            return false;
        }
    };
    const auto fail = [&](int r, const std::exception_ptr& e) {
        const int step = steps[static_cast<std::size_t>(r)].load(
            std::memory_order_relaxed);
        try {
            std::rethrow_exception(e);
        } catch (const std::exception& ex) {
            throw RankFailure(r, step, ex.what());
        } catch (...) {
            throw RankFailure(r, step, "unknown error");
        }
    };
    for (int r = 0; r < n_ranks; ++r) {
        const auto& e = errors[static_cast<std::size_t>(r)];
        if (e && !is_abort(e)) fail(r, e);
    }
    for (int r = 0; r < n_ranks; ++r) {
        const auto& e = errors[static_cast<std::size_t>(r)];
        if (e) fail(r, e);
    }
    // Every clean run must leave the post office empty: a stranded
    // message means a posted send was never matched by a receive (an
    // asymmetric exchange schedule, a skipped irecv) — make that loud
    // rather than silently dropping ghost data. Only reached when no
    // rank threw (a failing rank's peers abort their traffic mid-flight).
    util::require(hub.drained(),
                  "typhon::run: undelivered messages left in channels "
                  "(send posted that no receive matched)");
    return hub.traffic();
}

// ---------------------------------------------------------------------------
// Ghost exchanges
// ---------------------------------------------------------------------------

namespace {

/// Loud enforcement of the documented one-entry-per-peer precondition:
/// sends and receives match per (peer, tag) channel, so a duplicate
/// entry with data on the same side would either strand a message the
/// remote's single receive never matches or make finish()'s polling
/// nondeterministically cross two payloads.
void require_unique_peer(std::vector<int>& seen_peers, int rank,
                         const char* side) {
    for (const int seen : seen_peers)
        if (seen == rank)
            throw util::Error(std::string("typhon::exchange_start: two ") +
                              side +
                              " entries for the same peer in one schedule");
    seen_peers.push_back(rank);
}

} // namespace

PendingExchange exchange_start(Comm& comm, std::span<const FieldGroup> groups,
                               int tag) {
    PendingExchange pending;
    bool any_fields = false;
    for (const auto& group : groups) any_fields |= !group.fields.empty();
    if (!any_fields) return pending;

    // One message per peer rank appearing (with data) in any group: the
    // buffer lays the groups' slices back-to-back in group order, each
    // group's fields field-major, on `tag`. Post all sends first
    // (buffered), then the receives: deadlock-free for any peering
    // topology. Empty schedule sides post nothing at all — a schedule may
    // hold separate send-only and recv-only entries for the same peer (the
    // partitioner builds them that way), and skipping the empties keeps
    // each (peer, tag) channel down to at most one in-flight message per
    // exchange, so a pending receive can never pop a message meant for
    // another slot. Both sides derive the same per-peer layout because the
    // schedules are pairwise consistent: a group has send items for a peer
    // exactly when the peer's copy has recv items for it.
    // Peer ranks with data on the given side, in first-appearance order,
    // with the one-entry-per-peer precondition enforced per group (entries
    // for the same peer across *different* groups are exactly what fusing
    // combines).
    const auto ranks_with = [&](const bool sends) {
        std::vector<int> ranks;
        for (const auto& group : groups) {
            if (group.fields.empty()) continue;
            std::vector<int> seen;
            for (const auto& peer : group.schedule->peers) {
                const auto& items = sends ? peer.send_items : peer.recv_items;
                if (items.empty()) continue;
                require_unique_peer(seen, peer.rank,
                                    sends ? "sending" : "receiving");
                if (std::find(ranks.begin(), ranks.end(), peer.rank) ==
                    ranks.end())
                    ranks.push_back(peer.rank);
            }
        }
        return ranks;
    };
    const auto find_entry = [](const FieldGroup& group, const int rank,
                               const bool sends)
        -> const ExchangeSchedule::Peer* {
        for (const auto& peer : group.schedule->peers) {
            const auto& items = sends ? peer.send_items : peer.recv_items;
            if (peer.rank == rank && !items.empty()) return &peer;
        }
        return nullptr;
    };
    for (const int rank : ranks_with(true)) {
        // Pack straight into the vector the transport will own: the move
        // overload of send avoids a second full-payload copy.
        std::vector<Real> pack;
        std::size_t total = 0;
        for (const auto& group : groups)
            if (const auto* entry = group.fields.empty()
                                        ? nullptr
                                        : find_entry(group, rank, true))
                total += group.fields.size() * entry->send_items.size();
        pack.reserve(total);
        for (const auto& group : groups) {
            if (group.fields.empty()) continue;
            const auto* entry = find_entry(group, rank, true);
            if (entry == nullptr) continue;
            for (const auto field : group.fields)
                for (const Index i : entry->send_items)
                    pack.push_back(field[static_cast<std::size_t>(i)]);
        }
        comm.send(rank, tag, std::move(pack));
    }
    for (const int rank : ranks_with(false)) {
        PendingExchange::Slot slot;
        slot.request = comm.irecv(rank, tag);
        for (const auto& group : groups) {
            if (group.fields.empty()) continue;
            const auto* entry = find_entry(group, rank, false);
            if (entry == nullptr) continue;
            slot.sections.push_back({&entry->recv_items, group.fields});
        }
        pending.slots_.push_back(std::move(slot));
    }
    return pending;
}

PendingExchange exchange_start(Comm& comm, const ExchangeSchedule& schedule,
                               std::initializer_list<std::span<Real>> fields,
                               int tag) {
    FieldGroup group{&schedule, {fields.begin(), fields.end()}};
    return exchange_start(comm, {&group, 1}, tag);
}

PendingExchange::~PendingExchange() {
    // Abandonment is a caller bug — except during exception unwind, where
    // a sibling exchange's finish() legitimately threw and this one is
    // being torn down; aborting there would mask the real error.
    BL_ASSERT((slots_.empty() || std::uncaught_exceptions() > 0) &&
              "PendingExchange destroyed without finish()");
    // Pull whatever has already arrived off the channels and discard it,
    // so a later exchange on the same tags cannot unpack a stale message.
    // (Messages still in flight cannot be waited for here — the owning
    // rank may be unwinding an exception.)
    for (auto& slot : slots_) (void)slot.request.test();
}

PendingExchange& PendingExchange::operator=(PendingExchange&& other) noexcept {
    if (this != &other) {
        // Same abandonment guard as the destructor (including the unwind
        // exemption): overwriting a still-pending exchange must not
        // silently strand its messages.
        BL_ASSERT((slots_.empty() || std::uncaught_exceptions() > 0) &&
                  "PendingExchange overwritten without finish()");
        for (auto& slot : slots_) (void)slot.request.test();
        slots_ = std::move(other.slots_);
        other.slots_.clear();
    }
    return *this;
}

void PendingExchange::finish(util::Profiler* profiler) {
    std::size_t remaining = slots_.size();
    std::vector<std::uint8_t> unpacked(slots_.size(), 0);
    // Optional comm-split accounting: dispatching payloads into ghost
    // items is "unpack" time, blocking on a message that has not arrived
    // is "wait" time. The nullptr path (the default) adds nothing.
    const auto charge = [&](util::Kernel k, const auto& fn) {
        if (profiler == nullptr) {
            fn();
            return;
        }
        const util::ScopedTimer timer(*profiler, k);
        fn();
    };
    try {
        while (remaining > 0) {
            bool progressed = false;
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                auto& slot = slots_[i];
                if (unpacked[i] || !slot.request.test()) continue;
                const auto& data = slot.request.data();
                std::size_t expected = 0;
                for (const auto& section : slot.sections)
                    expected += section.fields.size() * section.recv_items->size();
                util::require(
                    data.size() == expected,
                    "typhon::exchange: schedule mismatch between peers");
                // Dispatch the payload's slices back to the bound fields:
                // sections in group order, field-major within each.
                charge(util::Kernel::halo_unpack, [&] {
                    std::size_t offset = 0;
                    for (const auto& section : slot.sections) {
                        const std::size_t n = section.recv_items->size();
                        for (const auto field : section.fields) {
                            for (std::size_t j = 0; j < n; ++j)
                                field[static_cast<std::size_t>(
                                    (*section.recv_items)[j])] =
                                    data[offset + j];
                            offset += n;
                        }
                    }
                });
                unpacked[i] = 1;
                --remaining;
                progressed = true;
            }
            if (!progressed && remaining > 0) {
                // No message ready: block on the first incomplete receive.
                for (std::size_t i = 0; i < slots_.size(); ++i)
                    if (!unpacked[i]) {
                        charge(util::Kernel::halo_wait,
                               [&] { slots_[i].request.wait(); });
                        break;
                    }
            }
        }
    } catch (...) {
        // The rank is failing (schedule mismatch): clear so unwinding
        // does not trip the destructor's abandonment assert and mask the
        // real error with an abort.
        slots_.clear();
        throw;
    }
    slots_.clear();
}

void exchange(Comm& comm, const ExchangeSchedule& schedule,
              std::span<Real> field, int tag) {
    auto pending = exchange_start(comm, schedule, {field}, tag);
    pending.finish();
}

void exchange_all(Comm& comm, const ExchangeSchedule& schedule,
                  std::initializer_list<std::span<Real>> fields, int tag) {
    auto pending = exchange_start(comm, schedule, fields, tag);
    pending.finish();
}

void exchange_all(Comm& comm, std::span<const FieldGroup> groups, int tag) {
    auto pending = exchange_start(comm, groups, tag);
    pending.finish();
}

} // namespace bookleaf::typhon
