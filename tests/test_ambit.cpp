/**
 * @file
 * Ambit interpreter semantics: single/dual/triple activations, DCC
 * complement ports, destructive TRA write-back, constants and fault
 * injection accounting.
 */

#include <gtest/gtest.h>

#include "cim/ambit.hpp"

using namespace c2m;
using cim::AmbitOp;
using cim::AmbitProgram;
using cim::AmbitSubarray;
using cim::RowRef;
using cim::RowSet;

TEST(Ambit, RowCloneCopiesData)
{
    AmbitSubarray sub(4, 16);
    sub.rawRow(0) = BitVector::fromString("1010101010101010");
    sub.execute(AmbitOp::aap(RowRef::data(0), RowRef::data(1)));
    EXPECT_EQ(sub.peekRow(1), sub.peekRow(0));
    EXPECT_EQ(sub.stats().aap, 1u);
}

TEST(Ambit, ConstantsReadZeroAndOne)
{
    AmbitSubarray sub(2, 8);
    sub.execute(AmbitOp::aap(RowRef::c1(), RowRef::data(0)));
    sub.execute(AmbitOp::aap(RowRef::c0(), RowRef::data(1)));
    EXPECT_EQ(sub.peekRow(0).popcount(), 8u);
    EXPECT_EQ(sub.peekRow(1).popcount(), 0u);
}

TEST(Ambit, DccNegativePortWriteStoresComplement)
{
    AmbitSubarray sub(2, 8);
    sub.rawRow(0) = BitVector::fromString("11110000");
    // Write through the negative port: the cell holds the complement.
    sub.execute(AmbitOp::aap(RowRef::data(0), RowRef::dccNeg(0)));
    EXPECT_EQ(sub.peekDcc(0).toString(), "00001111");
    // Reading the positive port returns the stored complement.
    sub.execute(AmbitOp::aap(RowRef::dcc(0), RowRef::data(1)));
    EXPECT_EQ(sub.peekRow(1).toString(), "00001111");
}

TEST(Ambit, DccNegativePortReadComplements)
{
    AmbitSubarray sub(2, 8);
    sub.rawRow(0) = BitVector::fromString("11001100");
    sub.execute(AmbitOp::aap(RowRef::data(0), RowRef::dcc(0)));
    sub.execute(AmbitOp::aap(RowRef::dccNeg(0), RowRef::data(1)));
    EXPECT_EQ(sub.peekRow(1).toString(), "00110011");
}

TEST(Ambit, B8WritesValueAndComplement)
{
    AmbitSubarray sub(1, 8);
    sub.rawRow(0) = BitVector::fromString("10011001");
    sub.execute(AmbitOp::aap(RowRef::data(0), RowSet::b8()));
    EXPECT_EQ(sub.peekT(0).toString(), "10011001");
    EXPECT_EQ(sub.peekDcc(0).toString(), "01100110");
}

TEST(Ambit, TripleActivationComputesMaj3)
{
    AmbitSubarray sub(1, 8);
    sub.pokeT(0, BitVector::fromString("00001111"));
    sub.pokeT(1, BitVector::fromString("00110011"));
    sub.pokeT(2, BitVector::fromString("01010101"));
    sub.execute(AmbitOp::ap(RowSet::b12()));
    EXPECT_EQ(sub.peekT(0).toString(), "00010111");
    EXPECT_EQ(sub.stats().tra, 1u);
}

TEST(Ambit, TripleActivationIsDestructive)
{
    AmbitSubarray sub(1, 8);
    sub.pokeT(0, BitVector::fromString("11111111"));
    sub.pokeT(1, BitVector::fromString("00000000"));
    sub.pokeT(2, BitVector::fromString("10101010"));
    sub.execute(AmbitOp::ap(RowSet::b12()));
    // All three activated rows hold the majority result.
    EXPECT_EQ(sub.peekT(0).toString(), "10101010");
    EXPECT_EQ(sub.peekT(1).toString(), "10101010");
    EXPECT_EQ(sub.peekT(2).toString(), "10101010");
}

TEST(Ambit, TraWritebackThroughNegatedPortComplements)
{
    AmbitSubarray sub(1, 8);
    sub.pokeT(2, BitVector::fromString("11110000"));
    sub.pokeDcc(0, BitVector::fromString("11001100")); // read as-is
    sub.pokeDcc(1, BitVector::fromString("11111111")); // neg port: 0
    // MAJ(T2, DCC0, ~DCC1) = MAJ(a, b, 0) = a AND b.
    sub.execute(AmbitOp::aap(
        RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::dccNeg(1)},
        RowRef::t(3)));
    EXPECT_EQ(sub.peekT(3).toString(), "11000000");
    // Destructive: DCC1's cell now holds the complement of the result.
    EXPECT_EQ(sub.peekDcc(1).toString(), "00111111");
    EXPECT_EQ(sub.peekDcc(0).toString(), "11000000");
}

TEST(Ambit, AapFromTripleWritesResultToDestination)
{
    AmbitSubarray sub(2, 4);
    sub.pokeT(0, BitVector::fromString("1100"));
    sub.pokeT(1, BitVector::fromString("1010"));
    sub.pokeT(2, BitVector::fromString("0000"));
    sub.execute(AmbitOp::aap(RowSet::b12(), RowRef::data(1)));
    EXPECT_EQ(sub.peekRow(1).toString(), "1000"); // AND
}

TEST(Ambit, HostAccessCountsReadsWrites)
{
    AmbitSubarray sub(2, 8);
    sub.hostWriteRow(0, BitVector(8));
    (void)sub.hostReadRow(0);
    (void)sub.hostReadRow(1);
    EXPECT_EQ(sub.stats().rowWrites, 1u);
    EXPECT_EQ(sub.stats().rowReads, 2u);
}

TEST(Ambit, FaultInjectionOnlyOnTra)
{
    cim::FaultModel fm;
    fm.pMaj = 1.0; // every disagreeing TRA bit flips
    AmbitSubarray sub(2, 64, fm, 7);

    // Copies are unaffected.
    sub.rawRow(0) = BitVector(64);
    sub.rawRow(0).fill(true);
    sub.execute(AmbitOp::aap(RowRef::data(0), RowRef::data(1)));
    EXPECT_EQ(sub.peekRow(1).popcount(), 64u);
    EXPECT_EQ(sub.stats().faultsInjected, 0u);

    // A disagreeing TRA (two ones, one zero) flips every bit under
    // p = 1; MAJ would give all ones, the faults give all zeros.
    sub.pokeT(0, sub.peekRow(0));
    sub.pokeT(1, sub.peekRow(0));
    sub.pokeT(2, BitVector(64));
    sub.execute(AmbitOp::ap(RowSet::b12()));
    EXPECT_EQ(sub.peekT(0).popcount(), 0u);
    EXPECT_EQ(sub.stats().faultsInjected, 64u);
}

TEST(Ambit, UnanimousTraDoesNotFault)
{
    // Charge-sharing faults need disagreeing cells (Sec. 2.3): a
    // triple of identical rows senses with full margin.
    cim::FaultModel fm;
    fm.pMaj = 1.0;
    AmbitSubarray sub(1, 64, fm, 7);
    BitVector ones(64);
    ones.fill(true);
    sub.pokeT(0, ones);
    sub.pokeT(1, ones);
    sub.pokeT(2, ones);
    sub.execute(AmbitOp::ap(RowSet::b12()));
    EXPECT_EQ(sub.peekT(0).popcount(), 64u);
    EXPECT_EQ(sub.stats().faultsInjected, 0u);
}

TEST(Ambit, FaultRateApproximatelyCalibrated)
{
    cim::FaultModel fm;
    fm.pMaj = 0.02;
    AmbitSubarray sub(1, 4096, fm, 11);
    BitVector ones(4096);
    ones.fill(true);
    const int trials = 40;
    for (int t = 0; t < trials; ++t) {
        sub.pokeT(0, ones);
        sub.pokeT(1, ones);
        sub.pokeT(2, BitVector(4096)); // disagreeing triple
        sub.execute(AmbitOp::ap(RowSet::b12()));
    }
    const double rate = static_cast<double>(
                            sub.stats().faultsInjected) /
                        (4096.0 * trials);
    EXPECT_NEAR(rate, 0.02, 0.004);
}

TEST(Ambit, ProgramRunExecutesAllOps)
{
    AmbitSubarray sub(3, 8);
    AmbitProgram p;
    p.aap(RowRef::c1(), RowRef::data(0));
    p.aap(RowRef::data(0), RowRef::data(1));
    p.aap(RowRef::data(1), RowRef::data(2));
    sub.run(p);
    EXPECT_EQ(sub.peekRow(2).popcount(), 8u);
    EXPECT_EQ(sub.stats().aap, 3u);
    EXPECT_EQ(p.traCount(), 0u);
}

TEST(Ambit, OpToStringIsReadable)
{
    const auto op = AmbitOp::aap(RowSet::b12(), RowRef::data(5));
    EXPECT_EQ(op.toString(), "AAP {T0,T1,T2} -> {D5}");
    EXPECT_EQ(AmbitOp::ap(RowSet::b14()).toString(),
              "AP  {DCC0,T1,T2}");
    EXPECT_EQ(AmbitOp::ap(RowSet{RowRef::t(2), RowRef::dcc(0),
                                 RowRef::dccNeg(1)})
                  .toString(),
              "AP  {T2,DCC0,~DCC1}");
}
