#pragma once
// Per-step telemetry records of two runs of the same problem, compared
// field by field: the step clock both drivers share through core::Stepper.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace bookleaf::test {

/// Expect `got` to record the same steps as `ref`. The step index, t, the
/// agreed dt, the retry count and the remap flag are global, so they must
/// match at any rank count. dt_local (the controller candidate before the
/// min-reduce) and dt_reason (its constraint) are rank-local by
/// definition, so they are compared only when `rank_local_too` says
/// `got` comes from a 1-rank run.
inline void expect_same_steps(const std::vector<obs::StepRecord>& got,
                              const std::vector<obs::StepRecord>& ref,
                              bool rank_local_too, const std::string& label) {
    ASSERT_EQ(got.size(), ref.size()) << label;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const auto& a = got[i];
        const auto& b = ref[i];
        EXPECT_EQ(a.step, b.step) << label << ": record " << i;
        EXPECT_EQ(a.t, b.t) << label << ": step " << b.step;
        EXPECT_EQ(a.dt, b.dt) << label << ": step " << b.step;
        EXPECT_EQ(a.retries, b.retries) << label << ": step " << b.step;
        EXPECT_EQ(a.remapped, b.remapped) << label << ": step " << b.step;
        if (!rank_local_too) continue;
        EXPECT_EQ(a.dt_local, b.dt_local) << label << ": step " << b.step;
        EXPECT_EQ(obs::dt_reason_name(a.dt_reason),
                  obs::dt_reason_name(b.dt_reason))
            << label << ": step " << b.step;
    }
}

} // namespace bookleaf::test
