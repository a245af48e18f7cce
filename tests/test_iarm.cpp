/**
 * @file
 * IARM scheduler tests (Sec. 4.5.2): the Fig. 9 walkthrough, the
 * per-digit bound invariant against arbitrary mask subsets and
 * against carry-absorbing drain plans, and the ripple-count advantage
 * over full rippling.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "jc/digits.hpp"
#include "jc/iarm.hpp"

using namespace c2m;

namespace {

/**
 * Host-side mock of one masked counter group: applies the scheduler's
 * ripples and the broadcast digit adds to a set of counters with
 * random masks, tracking each digit's effective value (JC + R*Onext,
 * must stay <= 2R-1).
 */
struct MockCounters
{
    unsigned radix;
    std::vector<std::vector<unsigned>> digits; ///< [counter][digit]

    MockCounters(unsigned radix, unsigned num_digits, size_t count)
        : radix(radix),
          digits(count, std::vector<unsigned>(num_digits, 0))
    {
    }

    void
    ripple(unsigned pos)
    {
        for (auto &c : digits) {
            if (c[pos] >= radix) {
                c[pos] -= radix;
                ASSERT_LT(pos + 1, c.size()) << "carry out of top";
                c[pos + 1] += 1;
                ASSERT_LE(c[pos + 1], 2 * radix - 1)
                    << "digit exceeded the Onext range";
            }
        }
    }

    void
    add(const std::vector<unsigned> &ds, const std::vector<bool> &mask)
    {
        for (size_t j = 0; j < digits.size(); ++j) {
            if (!mask[j])
                continue;
            for (size_t pos = 0; pos < ds.size(); ++pos) {
                digits[j][pos] += ds[pos];
                ASSERT_LE(digits[j][pos], 2 * radix - 1)
                    << "IARM failed to provide headroom";
            }
        }
    }

    uint64_t
    value(size_t j) const
    {
        uint64_t v = 0;
        for (size_t pos = digits[j].size(); pos-- > 0;)
            v = v * radix + digits[j][pos];
        return v;
    }
};

} // namespace

TEST(Iarm, Fig9Walkthrough)
{
    // Radix 10 counter initialized to 9999; repeated +9 must not
    // ripple on the first add (LSD reaches 18) and must ripple once
    // on the second (18 + 9 > 19), giving ...9,10,17 -- exactly the
    // paper's step 2 state 9,9,10,17.
    jc::IarmScheduler sched(10, 6);
    sched.applyAdd({9, 9, 9, 9});

    auto r1 = sched.prepareAdd({9});
    EXPECT_TRUE(r1.empty());
    sched.applyAdd({9});
    EXPECT_EQ(sched.bounds()[0], 18u);

    auto r2 = sched.prepareAdd({9});
    ASSERT_EQ(r2.size(), 1u);
    EXPECT_EQ(r2[0], 0u);
    sched.applyAdd({9});
    // The bound is conservative (R-1 after the ripple) + 9; the real
    // counter of Fig. 9 sits at 17, safely below it.
    EXPECT_EQ(sched.bounds()[0], 18u);
    EXPECT_EQ(sched.bounds()[1], 10u); // 9 + carry
}

TEST(Iarm, ChainResolvesHigherDigitFirst)
{
    jc::IarmScheduler sched(4, 5);
    // Fill digit 0 and digit 1 near their limits.
    for (int i = 0; i < 2; ++i) {
        sched.prepareAdd({3, 3});
        sched.applyAdd({3, 3});
    }
    // bounds now {6, 6}; adding {3,3} must ripple digit 0; digit 1
    // has headroom for the carry, so only digit 0 resolves.
    auto r = sched.prepareAdd({3, 3});
    ASSERT_GE(r.size(), 1u);
    sched.applyAdd({3, 3});
    for (unsigned b : sched.bounds())
        EXPECT_LE(b, 7u);
}

TEST(Iarm, DrainNormalizesAllDigits)
{
    jc::IarmScheduler sched(6, 5);
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const auto digits =
            jc::toDigits(rng.nextBounded(6 * 6 * 6), 6);
        for (unsigned d : sched.prepareAdd(digits))
            (void)d;
        sched.applyAdd(digits);
    }
    sched.drain();
    for (unsigned b : sched.bounds())
        EXPECT_LT(b, 6u);
}

class IarmRadix : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(IarmRadix, BoundInvariantOverRandomMasks)
{
    const unsigned radix = GetParam();
    // Size for the worst-case total (300 adds of < R^3) + guard.
    const uint64_t max_total =
        300ULL * (static_cast<uint64_t>(radix) * radix * radix - 1);
    const unsigned num_digits =
        jc::digitsForCapacity(radix, max_total + 1) + 1;
    const size_t counters = 16;
    jc::IarmScheduler sched(radix, num_digits);
    MockCounters mock(radix, num_digits, counters);
    Rng rng(1000 + radix);

    std::vector<std::vector<bool>> masks(counters);
    std::vector<uint64_t> expected(counters, 0);

    for (int step = 0; step < 300; ++step) {
        const uint64_t v =
            1 + rng.nextBounded(static_cast<uint64_t>(radix) * radix *
                                    radix -
                                1);
        const auto digits = jc::toDigits(v, radix);
        std::vector<bool> mask(counters);
        for (size_t j = 0; j < counters; ++j)
            mask[j] = rng.nextBool(0.5);

        for (unsigned pos : sched.prepareAdd(digits))
            mock.ripple(pos);
        sched.applyAdd(digits);
        mock.add(digits, mask);

        for (size_t j = 0; j < counters; ++j)
            if (mask[j])
                expected[j] += v;

        // Invariant: every real digit is bounded by the virtual one.
        for (size_t j = 0; j < counters; ++j)
            for (unsigned pos = 0; pos < num_digits; ++pos)
                ASSERT_LE(mock.digits[j][pos], sched.bounds()[pos])
                    << "radix=" << radix << " step=" << step;
    }

    for (size_t j = 0; j < counters; ++j)
        EXPECT_EQ(mock.value(j), expected[j]) << "counter " << j;
}

TEST_P(IarmRadix, AbsorbKeepsBoundsOverRandomPlans)
{
    // Drain plans: every counter gets its own delta, with headroom
    // the largest digit per position. Wherever bound + headroom would
    // pass 2R-1 the plan absorbs the digit instead of rippling it:
    // each pending counter drops by R there and adds R^(d+1) to its
    // delta, which may raise the headroom above. Afterwards IARM owes
    // no ripple, and every real digit stays at or below its bound.
    const unsigned radix = GetParam();
    // Size for the worst-case total (200 plans of < R^3) + guard.
    const uint64_t max_total =
        200ULL * (static_cast<uint64_t>(radix) * radix * radix - 1);
    const unsigned num_digits =
        jc::digitsForCapacity(radix, max_total + 1) + 1;
    const size_t counters = 16;
    jc::IarmScheduler sched(radix, num_digits);
    MockCounters mock(radix, num_digits, counters);
    Rng rng(2000 + radix);
    std::vector<uint64_t> expected(counters, 0);

    const auto digitsOf = [&](uint64_t v) {
        std::vector<unsigned> ds(num_digits, 0);
        for (unsigned pos = 0; v != 0; ++pos, v /= radix)
            ds[pos] = static_cast<unsigned>(v % radix);
        return ds;
    };
    uint64_t absorbed_digits = 0;
    for (int step = 0; step < 200; ++step) {
        // Deltas of up to three digits on a random subset.
        std::vector<uint64_t> delta(counters, 0);
        for (size_t j = 0; j < counters; ++j)
            if (rng.nextBool(0.6))
                delta[j] = rng.nextBounded(
                    static_cast<uint64_t>(radix) * radix * radix);
        for (size_t j = 0; j < counters; ++j)
            expected[j] += delta[j];
        uint64_t weight = 1;
        for (unsigned d = 0; d + 1 < num_digits; ++d) {
            weight *= radix;
            unsigned h = 0;
            for (size_t j = 0; j < counters; ++j)
                h = std::max(h, digitsOf(delta[j])[d]);
            if (h == 0 || sched.bounds()[d] + h <= 2 * radix - 1)
                continue;
            for (size_t j = 0; j < counters; ++j)
                if (mock.digits[j][d] >= radix) {
                    mock.digits[j][d] -= radix;
                    delta[j] += weight;
                }
            sched.absorb(d);
            ++absorbed_digits;
        }
        std::vector<unsigned> headroom(num_digits, 0);
        for (size_t j = 0; j < counters; ++j) {
            const auto ds = digitsOf(delta[j]);
            for (unsigned pos = 0; pos < num_digits; ++pos)
                headroom[pos] = std::max(headroom[pos], ds[pos]);
        }
        ASSERT_TRUE(sched.prepareAdd(headroom).empty())
            << "radix=" << radix << " step=" << step;
        sched.applyAdd(headroom);
        for (size_t j = 0; j < counters; ++j) {
            std::vector<bool> only(counters, false);
            only[j] = true;
            mock.add(digitsOf(delta[j]), only);
        }
        for (size_t j = 0; j < counters; ++j)
            for (unsigned pos = 0; pos < num_digits; ++pos)
                ASSERT_LE(mock.digits[j][pos], sched.bounds()[pos])
                    << "radix=" << radix << " step=" << step;
    }
    EXPECT_GT(absorbed_digits, 0u);
    EXPECT_EQ(sched.ripplesIssued(), 0u);
    for (size_t j = 0; j < counters; ++j)
        EXPECT_EQ(mock.value(j), expected[j]) << "counter " << j;
}

TEST_P(IarmRadix, FewerRipplesThanFullPropagation)
{
    const unsigned radix = GetParam();
    const unsigned num_digits =
        jc::digitsForCapacity(radix, 200ULL * 255 + 1) + 1;
    jc::IarmScheduler iarm(radix, num_digits);
    // The cost model's FullRipple baseline: a full descending pass
    // after every add.
    jc::IarmScheduler full(radix, num_digits);
    Rng rng(7);

    for (int i = 0; i < 200; ++i) {
        const auto digits =
            jc::toDigits(1 + rng.nextBounded(255), radix);
        for (jc::IarmScheduler *s : {&iarm, &full}) {
            for (unsigned d : s->prepareAdd(digits))
                (void)d;
            s->applyAdd(digits);
        }
        full.fullPassDescending();
    }
    EXPECT_LT(iarm.ripplesIssued(), full.ripplesIssued())
        << "radix=" << radix;
}

INSTANTIATE_TEST_SUITE_P(Radices, IarmRadix,
                         ::testing::Values(2u, 4u, 6u, 8u, 10u, 16u,
                                           20u));

TEST(Iarm, PanicsOnTopDigitOverflowIsGuarded)
{
    // A counter sized with a guard digit should never hit the panic;
    // we simply verify that staying within capacity works.
    jc::IarmScheduler sched(4, jc::digitsForCapacityBits(4, 16) + 1);
    Rng rng(9);
    uint64_t total = 0;
    while (total < (1ULL << 16) - 256) {
        const uint64_t v = 1 + rng.nextBounded(255);
        const auto digits = jc::toDigits(v, 4);
        for (unsigned d : sched.prepareAdd(digits))
            (void)d;
        sched.applyAdd(digits);
        total += v;
    }
    SUCCEED();
}
