// Unit tests for the parallel runtime: thread pool, parallel_for and
// reductions.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "par/exec.hpp"
#include "par/thread_pool.hpp"
#include "util/random.hpp"

namespace bp = bookleaf::par;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

TEST(ThreadPool, RunsJobOnAllWorkers) {
    bp::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::vector<std::atomic<int>> hits(4);
    pool.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
    bp::ThreadPool pool(3);
    std::atomic<int> total{0};
    for (int rep = 0; rep < 50; ++rep)
        pool.run([&](int) { total++; });
    EXPECT_EQ(total.load(), 50 * 3);
}

TEST(ThreadPool, SingleThreadRunsInline) {
    bp::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    int x = 0;
    pool.run([&](int tid) {
        EXPECT_EQ(tid, 0);
        x = 7;
    });
    EXPECT_EQ(x, 7);
}

TEST(Exec, ForEachCoversRangeExactlyOnceSerial) {
    const bp::Exec ex; // serial
    std::vector<int> counts(1000, 0);
    bp::for_each(ex, 1000, [&](Index i) { counts[static_cast<std::size_t>(i)]++; });
    for (const int c : counts) EXPECT_EQ(c, 1);
}

TEST(Exec, ForEachCoversRangeExactlyOnceThreaded) {
    bp::ThreadPool pool(4);
    bp::Exec ex;
    ex.pool = &pool;
    std::vector<std::atomic<int>> counts(10007);
    bp::for_each(ex, 10007, [&](Index i) { counts[static_cast<std::size_t>(i)]++; });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, RunAcceptsMoveOnlyCallable) {
    // The templated dispatch must not require copyable callables (no
    // std::function round trip).
    bp::ThreadPool pool(3);
    auto owned = std::make_unique<std::atomic<int>>(0);
    auto job = [p = std::move(owned)](int) { p->fetch_add(1); };
    pool.run(job);
    // `job` still owns the counter (run takes it by reference).
    pool.run(job);
}

TEST(Exec, ForEachChunkedCoversRangeExactlyOnce) {
    // Dynamic chunk scheduling over ranges from one short chunk to many
    // chunks with a ragged tail: every index still executes exactly once,
    // whatever the chunk interleaving.
    bp::ThreadPool pool(4);
    bp::Exec ex;
    ex.pool = &pool;
    for (const bookleaf::Index n : {1, 63, 64, 65, 1000, 9973, 100003}) {
        std::vector<std::atomic<int>> counts(static_cast<std::size_t>(n));
        bp::for_each(ex, n,
                     [&](Index i) { counts[static_cast<std::size_t>(i)]++; });
        for (const auto& c : counts) ASSERT_EQ(c.load(), 1) << "n " << n;
    }
}

TEST(Exec, ForEachChunkedBalancesIrregularWork) {
    // Iterations with wildly uneven cost: dynamic chunking must still
    // complete and cover the range (a static decomposition would too, but
    // this exercises the chunk hand-off path under contention).
    bp::ThreadPool pool(4);
    bp::Exec ex;
    ex.pool = &pool;
    std::atomic<long> total{0};
    bp::for_each(ex, 2048, [&](Index i) {
        long local = 0;
        const int reps = (i % 97 == 0) ? 2000 : 1; // rare expensive iterations
        for (int r = 0; r < reps; ++r) local += r ^ i;
        total += local;
    });
    EXPECT_GT(total.load(), 0);
}

TEST(Exec, ResolveGrainHonorsAndClampsTheKnob) {
    // for_each's chunk size is automatic (there is no grain knob): ~4
    // chunks per worker with a floor of 64, clamped to [1, n].
    bp::ThreadPool pool(4);
    bp::Exec ex;
    ex.pool = &pool;
    EXPECT_EQ(bp::detail::resolve_grain(ex, 10000),
              std::max<Index>(64, 10000 / (4 * 4)));
    EXPECT_EQ(bp::detail::resolve_grain(ex, 10), 10); // floor clamps to n
    EXPECT_EQ(bp::detail::resolve_grain(ex, 0), 1);   // empty range
}

TEST(Exec, ResolveTaskBlockHonorsAndClampsTheKnob) {
    bp::ThreadPool pool(4);
    bp::Exec ex;
    ex.pool = &pool;
    ex.task_block = 7;
    EXPECT_EQ(bp::detail::resolve_task_block(ex, 1000), 7);
    ex.task_block = 100000;
    EXPECT_EQ(bp::detail::resolve_task_block(ex, 1000), 1000);
    ex.task_block = 0;
    EXPECT_EQ(bp::detail::resolve_task_block(ex, 10000),
              std::max<Index>(64, 10000 / (4 * 4)));
    EXPECT_EQ(bp::detail::resolve_task_block(ex, 3), 3);
}

TEST(Exec, ForEachEmptyRange) {
    const bp::Exec ex;
    int calls = 0;
    bp::for_each(ex, 0, [&](Index) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(Exec, ReduceMinMatchesSerialReference) {
    bu::SplitMix64 rng(11);
    std::vector<Real> v(5000);
    for (auto& x : v) x = rng.uniform(-100.0, 100.0);

    const bp::Exec serial;
    const auto ref =
        bp::reduce_min(serial, static_cast<Index>(v.size()),
                       [&](Index i) { return v[static_cast<std::size_t>(i)]; });

    bp::ThreadPool pool(4);
    bp::Exec threaded;
    threaded.pool = &pool;
    const auto got =
        bp::reduce_min(threaded, static_cast<Index>(v.size()),
                       [&](Index i) { return v[static_cast<std::size_t>(i)]; });

    EXPECT_DOUBLE_EQ(got.value, ref.value);
    EXPECT_EQ(got.index, ref.index);
}

TEST(Exec, ReduceMinEmptyRange) {
    const bp::Exec ex;
    const auto r = bp::reduce_min(ex, 0, [](Index) { return 1.0; });
    EXPECT_EQ(r.index, bookleaf::no_index);
}

TEST(Exec, ReduceMinFirstOfTies) {
    const bp::Exec ex;
    std::vector<Real> v = {2.0, 1.0, 1.0};
    const auto r = bp::reduce_min(ex, 3, [&](Index i) {
        return v[static_cast<std::size_t>(i)];
    });
    EXPECT_EQ(r.index, 1);
}
