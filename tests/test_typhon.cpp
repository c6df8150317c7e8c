// Tests for the Typhon communication substrate: P2P ordering, collectives,
// ghost-exchange schedules, stress under many ranks and repeated rounds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "typhon/typhon.hpp"
#include "util/error.hpp"

namespace bt = bookleaf::typhon;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

TEST(Typhon, RunLaunchesAllRanks) {
    std::atomic<int> count{0};
    bt::run(5, [&](bt::Comm& comm) {
        EXPECT_EQ(comm.size(), 5);
        EXPECT_GE(comm.rank(), 0);
        EXPECT_LT(comm.rank(), 5);
        count++;
    });
    EXPECT_EQ(count.load(), 5);
}

TEST(Typhon, RankExceptionPropagates) {
    EXPECT_THROW(bt::run(3,
                         [](bt::Comm& comm) {
                             if (comm.rank() == 1)
                                 throw bu::Error("rank 1 failed");
                         }),
                 bu::Error);
}

TEST(Typhon, RankExceptionIsWrappedWithRankAndStep) {
    // The rethrown error must identify *which* rank failed and at which
    // driver step (as last reported through Comm::set_step) — a failed
    // run used to surface only the raw error text, masking the origin.
    try {
        bt::run(3, [](bt::Comm& comm) {
            comm.set_step(17);
            if (comm.rank() == 1) throw bu::Error("boom");
        });
        FAIL() << "expected typhon::RankFailure";
    } catch (const bt::RankFailure& f) {
        EXPECT_EQ(f.rank, 1);
        EXPECT_EQ(f.step, 17);
        const std::string what = f.what();
        EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
        EXPECT_NE(what.find("step 17"), std::string::npos) << what;
        EXPECT_NE(what.find("boom"), std::string::npos) << what;
    }
}

TEST(Typhon, RankFailureBeforeAnyStepOmitsStep) {
    try {
        bt::run(2, [](bt::Comm& comm) {
            if (comm.rank() == 0) throw bu::Error("early");
        });
        FAIL() << "expected typhon::RankFailure";
    } catch (const bt::RankFailure& f) {
        EXPECT_EQ(f.rank, 0);
        EXPECT_EQ(f.step, -1);
        EXPECT_EQ(std::string(f.what()).find("at step"), std::string::npos)
            << f.what();
    }
}

TEST(Typhon, RankFailureUnblocksPeersWaitingOnCollective) {
    // A dead rank never arrives at the rendezvous. The failure must
    // abort the collective so the peers wake and the join completes —
    // and the rethrown error must be the *original* rank failure, not
    // the secondary abort the peers unwound with.
    try {
        bt::run(3, [](bt::Comm& comm) {
            if (comm.rank() == 1) throw bu::Error("rank 1 failed");
            (void)comm.allreduce_min(static_cast<Real>(comm.rank()));
        });
        FAIL() << "expected the rank error to propagate";
    } catch (const bu::Error& e) {
        EXPECT_NE(std::string(e.what()).find("rank 1 failed"),
                  std::string::npos)
            << "got: " << e.what();
    }
}

TEST(Typhon, RankFailureUnblocksPeersWaitingOnRecv) {
    try {
        bt::run(2, [](bt::Comm& comm) {
            if (comm.rank() == 0) throw bu::Error("rank 0 failed");
            (void)comm.recv(0, 7); // message that will never be sent
        });
        FAIL() << "expected the rank error to propagate";
    } catch (const bu::Error& e) {
        EXPECT_NE(std::string(e.what()).find("rank 0 failed"),
                  std::string::npos)
            << "got: " << e.what();
    }
}

TEST(Typhon, RankFailureUnblocksPeersWaitingOnCollRequest) {
    // The dt-overlap pattern: a peer dies while this rank holds an
    // outstanding iallreduce. wait() must not hang.
    try {
        bt::run(3, [](bt::Comm& comm) {
            if (comm.rank() == 2) throw bu::Error("rank 2 failed");
            auto req = comm.iallreduce_min(1.0);
            (void)req.wait();
        });
        FAIL() << "expected the rank error to propagate";
    } catch (const bu::Error& e) {
        EXPECT_NE(std::string(e.what()).find("rank 2 failed"),
                  std::string::npos)
            << "got: " << e.what();
    }
}

TEST(Typhon, PointToPointRoundTrip) {
    bt::run(2, [](bt::Comm& comm) {
        if (comm.rank() == 0) {
            const std::vector<Real> msg = {1.5, 2.5, 3.5};
            comm.send(1, 7, msg);
            const auto back = comm.recv(1, 8);
            ASSERT_EQ(back.size(), 3u);
            EXPECT_DOUBLE_EQ(back[0], 3.0);
        } else {
            auto msg = comm.recv(0, 7);
            for (auto& v : msg) v *= 2;
            comm.send(0, 8, msg);
        }
    });
}

TEST(Typhon, MessagesWithSameTagPreserveFifoOrder) {
    bt::run(2, [](bt::Comm& comm) {
        if (comm.rank() == 0) {
            for (int i = 0; i < 50; ++i)
                comm.send(1, 3, std::vector<Real>{static_cast<Real>(i)});
        } else {
            for (int i = 0; i < 50; ++i) {
                const auto m = comm.recv(0, 3);
                ASSERT_EQ(m.size(), 1u);
                EXPECT_DOUBLE_EQ(m[0], static_cast<Real>(i));
            }
        }
    });
}

TEST(Typhon, TagsAreIndependentChannels) {
    bt::run(2, [](bt::Comm& comm) {
        if (comm.rank() == 0) {
            comm.send(1, 1, std::vector<Real>{1.0});
            comm.send(1, 2, std::vector<Real>{2.0});
        } else {
            // Receive in the opposite order of sending: must still match.
            EXPECT_DOUBLE_EQ(comm.recv(0, 2)[0], 2.0);
            EXPECT_DOUBLE_EQ(comm.recv(0, 1)[0], 1.0);
        }
    });
}

TEST(Typhon, AllreduceMinMaxSum) {
    bt::run(7, [](bt::Comm& comm) {
        const Real v = static_cast<Real>(comm.rank() + 1);
        EXPECT_DOUBLE_EQ(comm.allreduce_min(v), 1.0);
        EXPECT_DOUBLE_EQ(comm.allreduce_max(v), 7.0);
        EXPECT_DOUBLE_EQ(comm.allreduce_sum(v), 28.0);
    });
}

TEST(Typhon, RepeatedCollectivesDoNotInterfere) {
    bt::run(4, [](bt::Comm& comm) {
        for (int round = 0; round < 200; ++round) {
            const Real v = static_cast<Real>(comm.rank() + round);
            const Real mn = comm.allreduce_min(v);
            EXPECT_DOUBLE_EQ(mn, static_cast<Real>(round));
        }
    });
}

TEST(Typhon, AllgatherCollectsInRankOrder) {
    bt::run(4, [](bt::Comm& comm) {
        const auto all = comm.allgather(static_cast<Real>(comm.rank() * 10));
        ASSERT_EQ(all.size(), 4u);
        for (int r = 0; r < 4; ++r)
            EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], 10.0 * r);
    });
}

TEST(Typhon, BarrierSynchronises) {
    std::atomic<int> phase1{0};
    std::vector<int> seen_after(4, -1);
    bt::run(4, [&](bt::Comm& comm) {
        phase1++;
        comm.barrier();
        seen_after[static_cast<std::size_t>(comm.rank())] = phase1.load();
    });
    for (const int s : seen_after) EXPECT_EQ(s, 4);
}

TEST(TyphonExchange, RingGhostExchange) {
    // 4 ranks in a ring; each rank's field: [own_value, ghost_from_left,
    // ghost_from_right]. After exchange the ghosts hold the neighbours'
    // own values.
    bt::run(4, [](bt::Comm& comm) {
        const int r = comm.rank();
        const int left = (r + 3) % 4;
        const int right = (r + 1) % 4;
        std::vector<Real> field = {static_cast<Real>(r * 100), -1.0, -1.0};

        bt::ExchangeSchedule sched;
        // Entry order must be globally consistent: lower peer rank first.
        bt::ExchangeSchedule::Peer a, b;
        a.rank = left;
        a.send_items = {0};
        a.recv_items = {1};
        b.rank = right;
        b.send_items = {0};
        b.recv_items = {2};
        if (left <= right) {
            sched.peers = {a, b};
        } else {
            sched.peers = {b, a};
        }
        bt::exchange(comm, sched, field, 42);
        EXPECT_DOUBLE_EQ(field[1], 100.0 * left);
        EXPECT_DOUBLE_EQ(field[2], 100.0 * right);
        EXPECT_DOUBLE_EQ(field[0], 100.0 * r);
    });
}

TEST(TyphonExchange, ExchangeAllUsesDistinctTags) {
    bt::run(2, [](bt::Comm& comm) {
        const int r = comm.rank();
        std::vector<Real> f1 = {static_cast<Real>(r + 1), 0.0};
        std::vector<Real> f2 = {static_cast<Real>((r + 1) * 10), 0.0};
        bt::ExchangeSchedule sched;
        bt::ExchangeSchedule::Peer p;
        p.rank = 1 - r;
        p.send_items = {0};
        p.recv_items = {1};
        sched.peers = {p};
        bt::exchange_all(comm, sched, {std::span<Real>(f1), std::span<Real>(f2)},
                         10);
        EXPECT_DOUBLE_EQ(f1[1], static_cast<Real>(2 - r));
        EXPECT_DOUBLE_EQ(f2[1], static_cast<Real>((2 - r) * 10));
    });
}

TEST(TyphonExchange, MismatchedScheduleThrows) {
    EXPECT_THROW(
        bt::run(2,
                [](bt::Comm& comm) {
                    std::vector<Real> field = {1.0, 2.0, 3.0};
                    bt::ExchangeSchedule sched;
                    bt::ExchangeSchedule::Peer p;
                    p.rank = 1 - comm.rank();
                    // Rank 0 sends 1 item but expects 2; rank 1 sends 1 and
                    // expects 1 -> rank 0's recv length check fails.
                    p.send_items = {0};
                    p.recv_items = comm.rank() == 0
                                       ? std::vector<Index>{1, 2}
                                       : std::vector<Index>{1};
                    sched.peers = {p};
                    bt::exchange(comm, sched, field, 5);
                }),
        bu::Error);
}

TEST(TyphonStress, ManyRanksManyRounds) {
    // 16 ranks, 50 rounds of neighbour exchange + allreduce; checksum
    // must match the serial recurrence.
    const int n = 16;
    bt::run(n, [n](bt::Comm& comm) {
        const int r = comm.rank();
        Real value = static_cast<Real>(r);
        for (int round = 0; round < 50; ++round) {
            const int right = (r + 1) % n;
            const int left = (r + n - 1) % n;
            comm.send(right, 9, std::vector<Real>{value});
            const auto m = comm.recv(left, 9);
            value = Real(0.5) * (value + m[0]);
            const Real sum = comm.allreduce_sum(value);
            // Total is invariant under the averaging recurrence.
            EXPECT_NEAR(sum, n * (n - 1) / 2.0, 1e-9);
        }
    });
}

// ---------------------------------------------------------------------------
// Request layer: isend/irecv + test/wait/wait_all semantics
// ---------------------------------------------------------------------------

TEST(TyphonRequest, NullRequestIsComplete) {
    bt::Request r;
    EXPECT_TRUE(r.done());
    EXPECT_TRUE(r.test());
    r.wait(); // no-op
    EXPECT_TRUE(r.data().empty());
}

TEST(TyphonRequest, IsendCompletesImmediatelyIrecvOnWait) {
    bt::run(2, [](bt::Comm& comm) {
        if (comm.rank() == 0) {
            auto req = comm.isend(1, 3, std::vector<Real>{7.0, 8.0});
            // Buffered-eager transport: the send request is born complete.
            EXPECT_TRUE(req.done());
            EXPECT_TRUE(req.test());
            EXPECT_TRUE(req.data().empty());
        } else {
            auto req = comm.irecv(0, 3);
            req.wait();
            EXPECT_TRUE(req.done());
            ASSERT_EQ(req.data().size(), 2u);
            EXPECT_DOUBLE_EQ(req.data()[0], 7.0);
            EXPECT_DOUBLE_EQ(req.data()[1], 8.0);
        }
    });
}

TEST(TyphonRequest, TestPollsToCompletionWithoutBlocking) {
    bt::run(2, [](bt::Comm& comm) {
        if (comm.rank() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            comm.send(1, 5, std::vector<Real>{1.0});
        } else {
            auto req = comm.irecv(0, 5);
            // Poll (never block). Must eventually harvest the message.
            while (!req.test()) std::this_thread::yield();
            ASSERT_EQ(req.data().size(), 1u);
            EXPECT_DOUBLE_EQ(req.data()[0], 1.0);
        }
    });
}

TEST(TyphonRequest, DataBeforeCompletionThrows) {
    bt::run(2, [](bt::Comm& comm) {
        if (comm.rank() == 0) {
            auto req = comm.irecv(1, 9);
            EXPECT_FALSE(req.done());
            EXPECT_THROW((void)req.data(), bu::Error);
            req.wait();
            EXPECT_DOUBLE_EQ(req.data()[0], 4.0);
        } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            comm.send(0, 9, std::vector<Real>{4.0});
        }
    });
}

TEST(TyphonRequest, WaitAllHandlesOutOfOrderCompletion) {
    // Rank 0 sends tags 12, 11, 10 in *reverse* posting order with delays;
    // rank 1 posts irecvs for 10, 11, 12 and wait_all must complete them
    // as the messages arrive, never deadlocking on posting order.
    bt::run(2, [](bt::Comm& comm) {
        if (comm.rank() == 0) {
            for (const int tag : {12, 11, 10}) {
                comm.send(1, tag, std::vector<Real>{static_cast<Real>(tag)});
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        } else {
            std::vector<bt::Request> reqs;
            for (const int tag : {10, 11, 12}) reqs.push_back(comm.irecv(0, tag));
            bt::wait_all(reqs);
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                ASSERT_TRUE(reqs[i].done());
                EXPECT_DOUBLE_EQ(reqs[i].data()[0], static_cast<Real>(10 + i));
            }
        }
    });
}

TEST(TyphonRequest, ManyInFlightRequestsPerChannelKeepFifoOrder) {
    bt::run(2, [](bt::Comm& comm) {
        constexpr int n = 40;
        if (comm.rank() == 0) {
            for (int i = 0; i < n; ++i)
                (void)comm.isend(1, 2, std::vector<Real>{static_cast<Real>(i)});
        } else {
            std::vector<bt::Request> reqs;
            for (int i = 0; i < n; ++i) reqs.push_back(comm.irecv(0, 2));
            bt::wait_all(reqs);
            // Same-channel requests complete in posting order (FIFO queue).
            for (int i = 0; i < n; ++i)
                EXPECT_DOUBLE_EQ(reqs[static_cast<std::size_t>(i)].data()[0],
                                 static_cast<Real>(i));
        }
    });
}

TEST(TyphonRequest, HubChannelKeysDoNotCollideForLargeRankIds) {
    // Regression: the old bit-packed uint64 key shifted a 32-bit dst into
    // the src field, so (src=1, dst=0) collided with (src=0, dst=2^24).
    bt::detail::Hub hub(1 << 25);
    hub.send(1, 0, 0, {42.0});
    EXPECT_FALSE(hub.try_recv(0, 1 << 24, 0).has_value());
    const auto msg = hub.try_recv(1, 0, 0);
    ASSERT_TRUE(msg.has_value());
    EXPECT_DOUBLE_EQ((*msg)[0], 42.0);
}

TEST(TyphonExchange, StartFinishSplitMatchesBlockingExchange) {
    // The overlapped form (post, compute, finish) must land exactly the
    // same bytes as the blocking exchange.
    bt::run(4, [](bt::Comm& comm) {
        const int r = comm.rank();
        const int left = (r + 3) % 4;
        const int right = (r + 1) % 4;
        std::vector<Real> blocking = {static_cast<Real>(r * 7 + 1), -1.0, -1.0};
        std::vector<Real> overlapped = blocking;

        bt::ExchangeSchedule sched;
        bt::ExchangeSchedule::Peer a, b;
        a.rank = left;
        a.send_items = {0};
        a.recv_items = {1};
        b.rank = right;
        b.send_items = {0};
        b.recv_items = {2};
        sched.peers = left <= right ? std::vector{a, b} : std::vector{b, a};

        bt::exchange(comm, sched, blocking, 60);

        auto pending = bt::exchange_start(comm, sched, {overlapped}, 70);
        EXPECT_FALSE(pending.finished());
        // "Interior work" while the halo is in flight.
        overlapped[0] += 0.0;
        pending.finish();
        EXPECT_TRUE(pending.finished());

        for (std::size_t i = 0; i < blocking.size(); ++i)
            EXPECT_EQ(blocking[i], overlapped[i]) << "slot " << i;
    });
}

TEST(TyphonExchange, StartFinishMultipleFieldsConsecutiveTags) {
    bt::run(2, [](bt::Comm& comm) {
        const int r = comm.rank();
        std::vector<Real> f1 = {static_cast<Real>(r + 1), 0.0};
        std::vector<Real> f2 = {static_cast<Real>((r + 1) * 10), 0.0};
        bt::ExchangeSchedule sched;
        bt::ExchangeSchedule::Peer p;
        p.rank = 1 - r;
        p.send_items = {0};
        p.recv_items = {1};
        sched.peers = {p};
        auto pending = bt::exchange_start(
            comm, sched, {std::span<Real>(f1), std::span<Real>(f2)}, 80);
        pending.finish();
        EXPECT_DOUBLE_EQ(f1[1], static_cast<Real>(2 - r));
        EXPECT_DOUBLE_EQ(f2[1], static_cast<Real>((2 - r) * 10));
    });
}

TEST(TyphonRequest, WaitAllBlocksOnEarliestSameChannelRequest) {
    // Regression: wait_all must block on the FIRST incomplete request.
    // Blocking on a later same-channel request would pop the channel
    // front for it and shift every subsequent payload by one. The sender
    // trickles messages so the receiver's wait_all actually blocks
    // mid-sequence instead of harvesting everything in one sweep.
    bt::run(2, [](bt::Comm& comm) {
        constexpr int n = 8;
        if (comm.rank() == 0) {
            for (int i = 0; i < n; ++i) {
                comm.send(1, 4, std::vector<Real>{static_cast<Real>(i)});
                std::this_thread::sleep_for(std::chrono::milliseconds(3));
            }
        } else {
            std::vector<bt::Request> reqs;
            for (int i = 0; i < n; ++i) reqs.push_back(comm.irecv(0, 4));
            bt::wait_all(reqs);
            for (int i = 0; i < n; ++i)
                EXPECT_DOUBLE_EQ(reqs[static_cast<std::size_t>(i)].data()[0],
                                 static_cast<Real>(i))
                    << "payload misdelivered to request " << i;
        }
    });
}

// ---------------------------------------------------------------------------
// Coalesced packing: one buffer per peer per exchange
// ---------------------------------------------------------------------------

namespace {

/// 4-rank ring schedule: send own slot 0 to both neighbours, receive
/// their slot 0 into ghosts 1 (left) and 2 (right).
bt::ExchangeSchedule ring_schedule(int rank) {
    const int left = (rank + 3) % 4;
    const int right = (rank + 1) % 4;
    bt::ExchangeSchedule::Peer a, b;
    a.rank = left;
    a.send_items = {0};
    a.recv_items = {1};
    b.rank = right;
    b.send_items = {0};
    b.recv_items = {2};
    bt::ExchangeSchedule sched;
    sched.peers = left <= right ? std::vector{a, b} : std::vector{b, a};
    return sched;
}

} // namespace

TEST(TyphonCoalesced, MatchesPerFieldBitwiseOnRingExchange) {
    bt::run(4, [](bt::Comm& comm) {
        const int r = comm.rank();
        const auto sched = ring_schedule(r);
        // Three fields with distinct per-rank values; one coalesced
        // exchange must land exactly the bytes of one single-field
        // exchange per field.
        std::vector<std::vector<Real>> coalesced, one_by_one;
        for (int f = 0; f < 3; ++f) {
            coalesced.push_back({static_cast<Real>(r * 10 + f), -1.0, -1.0});
            one_by_one.push_back(coalesced.back());
        }
        bt::exchange_all(comm, sched,
                         {std::span<Real>(coalesced[0]),
                          std::span<Real>(coalesced[1]),
                          std::span<Real>(coalesced[2])},
                         300);
        for (int f = 0; f < 3; ++f)
            bt::exchange(comm, sched, one_by_one[static_cast<std::size_t>(f)],
                         310 + f);
        for (int f = 0; f < 3; ++f)
            for (int i = 0; i < 3; ++i)
                EXPECT_EQ(coalesced[static_cast<std::size_t>(f)]
                                   [static_cast<std::size_t>(i)],
                          one_by_one[static_cast<std::size_t>(f)]
                                   [static_cast<std::size_t>(i)])
                    << "field " << f << " slot " << i;
        // Ghost values are the neighbours' slot-0 values in every field.
        const int left = (r + 3) % 4;
        const int right = (r + 1) % 4;
        for (int f = 0; f < 3; ++f) {
            EXPECT_DOUBLE_EQ(coalesced[static_cast<std::size_t>(f)][1],
                             static_cast<Real>(left * 10 + f));
            EXPECT_DOUBLE_EQ(coalesced[static_cast<std::size_t>(f)][2],
                             static_cast<Real>(right * 10 + f));
        }
    });
}

TEST(TyphonCoalesced, OneMessagePerPeerRegardlessOfFieldCount) {
    // 2 ranks, 3 fields each way: 1 message per rank carrying all three.
    const auto traffic = bt::run(2, [](bt::Comm& comm) {
        const int r = comm.rank();
        std::vector<Real> f1 = {static_cast<Real>(r + 1), 0.0};
        std::vector<Real> f2 = {static_cast<Real>((r + 1) * 10), 0.0};
        std::vector<Real> f3 = {static_cast<Real>((r + 1) * 100), 0.0};
        bt::ExchangeSchedule sched;
        bt::ExchangeSchedule::Peer p;
        p.rank = 1 - r;
        p.send_items = {0};
        p.recv_items = {1};
        sched.peers = {p};
        bt::exchange_all(comm, sched,
                         {std::span<Real>(f1), std::span<Real>(f2),
                          std::span<Real>(f3)},
                         20);
        EXPECT_DOUBLE_EQ(f1[1], static_cast<Real>(2 - r));
        EXPECT_DOUBLE_EQ(f2[1], static_cast<Real>((2 - r) * 10));
        EXPECT_DOUBLE_EQ(f3[1], static_cast<Real>((2 - r) * 100));
    });
    EXPECT_EQ(traffic.messages, 2);
    EXPECT_EQ(traffic.reals, 6); // 3 Reals per rank
}

TEST(TyphonCoalesced, SendOnlyAndRecvOnlyEntriesCoalesce) {
    // One-directional peering with asymmetric schedule entries (the shape
    // part::decompose builds): rank 0 holds a send-only entry, rank 1 the
    // matching recv-only entry. Two fields -> exactly one message of four
    // Reals.
    const auto traffic = bt::run(2, [](bt::Comm& comm) {
        std::vector<Real> f1 = {1.5, 2.5, -1.0, -1.0};
        std::vector<Real> f2 = {3.5, 4.5, -1.0, -1.0};
        if (comm.rank() == 0) {
            for (auto& v : f1) v += 10.0;
            for (auto& v : f2) v += 10.0;
        }
        bt::ExchangeSchedule sched;
        bt::ExchangeSchedule::Peer p;
        p.rank = 1 - comm.rank();
        if (comm.rank() == 0)
            p.send_items = {0, 1};
        else
            p.recv_items = {2, 3};
        sched.peers = {p};
        auto pending = bt::exchange_start(
            comm, sched, {std::span<Real>(f1), std::span<Real>(f2)}, 30);
        pending.finish();
        if (comm.rank() == 1) {
            EXPECT_DOUBLE_EQ(f1[2], 11.5);
            EXPECT_DOUBLE_EQ(f1[3], 12.5);
            EXPECT_DOUBLE_EQ(f2[2], 13.5);
            EXPECT_DOUBLE_EQ(f2[3], 14.5);
        }
    });
    EXPECT_EQ(traffic.messages, 1);
    EXPECT_EQ(traffic.reals, 4);
}

TEST(TyphonCoalesced, EmptySchedulesAndEmptyFieldListsPostNothing) {
    const auto traffic = bt::run(2, [](bt::Comm& comm) {
        std::vector<Real> f = {1.0, 2.0};
        const bt::ExchangeSchedule empty;
        bt::exchange_all(comm, empty, {std::span<Real>(f)}, 40);
        bt::exchange(comm, empty, f, 41);
        // Non-empty schedule, zero fields: nothing to move either.
        bt::ExchangeSchedule::Peer p;
        p.rank = 1 - comm.rank();
        p.send_items = {0};
        p.recv_items = {1};
        bt::ExchangeSchedule sched;
        sched.peers = {p};
        auto pending = bt::exchange_start(comm, sched, {}, 42);
        EXPECT_TRUE(pending.finished());
        pending.finish();
        EXPECT_DOUBLE_EQ(f[0], 1.0);
        EXPECT_DOUBLE_EQ(f[1], 2.0);
    });
    EXPECT_EQ(traffic.messages, 0);
}

TEST(TyphonCoalesced, SingleFieldIsSameWireFormatInBothPackings) {
    // With one field a one-field exchange_all and the single-field
    // exchange() are the same wire format: exactly one message per
    // sending peer with the same payload.
    for (const bool single : {false, true}) {
        const auto traffic = bt::run(2, [single](bt::Comm& comm) {
            const int r = comm.rank();
            std::vector<Real> f = {static_cast<Real>(r + 1), 0.0};
            bt::ExchangeSchedule sched;
            bt::ExchangeSchedule::Peer p;
            p.rank = 1 - r;
            p.send_items = {0};
            p.recv_items = {1};
            sched.peers = {p};
            if (single)
                bt::exchange(comm, sched, f, 50);
            else
                bt::exchange_all(comm, sched, {std::span<Real>(f)}, 50);
            EXPECT_DOUBLE_EQ(f[1], static_cast<Real>(2 - r));
        });
        EXPECT_EQ(traffic.messages, 2);
        EXPECT_EQ(traffic.reals, 2);
    }
}

TEST(TyphonCoalesced, MismatchedScheduleThrowsWithFieldCount) {
    // Coalesced length check is fields x recv_items: a peer disagreement
    // on the item count still fails loudly.
    EXPECT_THROW(
        bt::run(2,
                [](bt::Comm& comm) {
                    std::vector<Real> f1 = {1.0, 2.0, 3.0};
                    std::vector<Real> f2 = {4.0, 5.0, 6.0};
                    bt::ExchangeSchedule sched;
                    bt::ExchangeSchedule::Peer p;
                    p.rank = 1 - comm.rank();
                    p.send_items = {0};
                    p.recv_items = comm.rank() == 0
                                       ? std::vector<Index>{1, 2}
                                       : std::vector<Index>{1};
                    sched.peers = {p};
                    bt::exchange_all(comm, sched,
                                     {std::span<Real>(f1), std::span<Real>(f2)},
                                     55);
                }),
        bu::Error);
}

// ---------------------------------------------------------------------------
// Nonblocking collective: iallreduce_min
// ---------------------------------------------------------------------------

TEST(TyphonCollective, NullCollRequestIsComplete) {
    bt::CollRequest req;
    EXPECT_TRUE(req.test());
    EXPECT_DOUBLE_EQ(req.wait(), 0.0);
}

TEST(TyphonCollective, IallreduceMinMatchesBlockingAllreduce) {
    bt::run(5, [](bt::Comm& comm) {
        for (int round = 0; round < 50; ++round) {
            const Real v = static_cast<Real>((comm.rank() * 7 + round * 3) %
                                             11);
            auto req = comm.iallreduce_min(v);
            const Real got = req.wait();
            // Blocking reference on the same inputs the next generation.
            const Real ref = comm.allreduce_min(v);
            EXPECT_EQ(got, ref) << "round " << round;
            // wait() is idempotent.
            EXPECT_EQ(req.wait(), got);
            EXPECT_TRUE(req.test());
        }
    });
}

TEST(TyphonCollective, TestPollsToCompletionWithoutBlocking) {
    bt::run(3, [](bt::Comm& comm) {
        if (comm.rank() != 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        auto req = comm.iallreduce_min(static_cast<Real>(comm.rank() + 1));
        while (!req.test()) std::this_thread::yield();
        EXPECT_DOUBLE_EQ(req.wait(), 1.0);
    });
}

TEST(TyphonCollective, IallreduceMinCorrectUnderConcurrentHaloTraffic) {
    // The dt-reduce overlap pattern: post the reduce, run a ghost
    // exchange while the collective is in flight, then finish the reduce.
    // The reduce must see exactly the posted contributions, never the
    // halo payloads, for many consecutive rounds.
    bt::run(4, [](bt::Comm& comm) {
        const int r = comm.rank();
        const auto sched = ring_schedule(r);
        std::vector<Real> field = {0.0, -1.0, -1.0};
        for (int round = 0; round < 30; ++round) {
            const Real contribution = static_cast<Real>(r + round);
            field[0] = static_cast<Real>(r * 1000 + round);
            auto reduce = comm.iallreduce_min(contribution);
            auto halo = bt::exchange_start(comm, sched, {field}, 400);
            halo.finish();
            const Real got = reduce.wait();
            EXPECT_DOUBLE_EQ(got, static_cast<Real>(round)) << "round "
                                                            << round;
            const int left = (r + 3) % 4;
            const int right = (r + 1) % 4;
            EXPECT_DOUBLE_EQ(field[1],
                             static_cast<Real>(left * 1000 + round));
            EXPECT_DOUBLE_EQ(field[2],
                             static_cast<Real>(right * 1000 + round));
        }
    });
}

TEST(Typhon, StrandedMessagesAreDetectedAtShutdown) {
    // A send that no receive ever matches (asymmetric schedule, skipped
    // irecv) must fail loudly at the end of the run, not silently drop
    // ghost data.
    EXPECT_THROW(bt::run(2,
                         [](bt::Comm& comm) {
                             if (comm.rank() == 0)
                                 comm.send(1, 99, std::vector<Real>{1.0});
                             // Rank 1 never receives tag 99.
                             comm.barrier();
                         }),
                 bu::Error);
}
