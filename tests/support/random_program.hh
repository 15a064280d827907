/**
 * @file
 * Shared random-program generator for the fuzzing suites.
 *
 * property_test.cc uses it to diff the detailed core against the
 * functional engine, isa_test.cc to check predecode metadata, and
 * dispatch_equiv_test.cc and mpki_equiv_test.cc to diff superblock
 * dispatch against single-stepping — one distribution, so any program shape that
 * exposed a bug in one consumer automatically stresses the others.
 */

#ifndef PBS_TESTS_SUPPORT_RANDOM_PROGRAM_HH
#define PBS_TESTS_SUPPORT_RANDOM_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "rng/rng.hh"

namespace pbs::testsupport {

/**
 * Generate a random but guaranteed-valid, guaranteed-terminating
 * program: an outer counted loop whose body mixes ALU ops, memory ops
 * into a small data region, forward conditional skips, and optionally
 * a probabilistic branch group.
 */
inline isa::Program
randomProgram(rng::XorShift64Star &rng, bool withProb)
{
    using isa::CmpOp;
    isa::Assembler a;
    a.ldi(3, 200 + rng.next() % 200);  // loop counter
    a.ldi(4, 0x20000);                 // data base
    a.ldi(10, 1 + rng.next() % 1000);  // working values
    a.ldi(11, 1 + rng.next() % 1000);
    a.ldf(12, 0.25 + 0.5 * rng.nextDouble());  // prob threshold
    a.label("loop");

    unsigned body = 4 + rng.next() % 12;
    unsigned skips = 0;
    for (unsigned i = 0; i < body; i++) {
        uint8_t rd = 10 + rng.next() % 4;
        uint8_t rs1 = 10 + rng.next() % 4;
        uint8_t rs2 = 10 + rng.next() % 4;
        switch (rng.next() % 10) {
          case 0: a.add(rd, rs1, rs2); break;
          case 1: a.sub(rd, rs1, rs2); break;
          case 2: a.mul(rd, rs1, rs2); break;
          case 3: a.xor_(rd, rs1, rs2); break;
          case 4: a.addi(rd, rs1, int64_t(rng.next() % 97) - 48); break;
          case 5: a.srli(rd, rs1, 1 + rng.next() % 7); break;
          case 6:
            a.st(4, rs1, (rng.next() % 64) * 8);
            break;
          case 7:
            a.ld(rd, 4, (rng.next() % 64) * 8);
            break;
          case 8: {
            // Forward conditional skip over the next op.
            std::string skip = "skip" + std::to_string(skips++);
            a.jz(rs1, skip);
            a.addi(rd, rd, 1);
            a.label(skip);
            break;
          }
          default: a.cmp(CmpOp::LTU, rd, rs1, rs2); break;
        }
    }

    if (withProb) {
        // rng-driven probabilistic branch: uniform in r13 via xorshift
        // bits, compared against the threshold in r12.
        a.slli(13, 10, 13);
        a.xor_(13, 13, 10);
        a.srli(14, 13, 12);
        a.andi(14, 14, 0xfffff);
        a.i2f(14, 14);
        a.ldf(15, 1048576.0);
        a.fdiv(14, 14, 15);
        a.probCmp(CmpOp::FLT, 6, 14, 12);
        a.probJmp(isa::REG_ZERO, 6, "taken");
        a.addi(10, 10, 3);
        a.label("taken");
    }

    a.addi(3, 3, -1);
    a.jnz(3, "loop");
    a.halt();
    return a.finish();
}

/** The seeds of the dispatch suites' fuzz corpus. */
inline constexpr uint64_t kFuzzSeeds[] = {11, 42, 1234, 9999};

/**
 * The fuzz corpus of the dispatch suites (dispatch_equiv_test,
 * mpki_equiv_test): 60 programs per seed of kFuzzSeeds, 240 in all,
 * each with a probabilistic group or not at random.
 */
inline std::vector<isa::Program>
fuzzCorpus(uint64_t seed)
{
    rng::XorShift64Star rng(seed);
    std::vector<isa::Program> progs;
    for (int round = 0; round < 60; round++) {
        const bool withProb = (rng.next() & 1) != 0;
        progs.push_back(randomProgram(rng, withProb));
    }
    return progs;
}

}  // namespace pbs::testsupport

#endif  // PBS_TESTS_SUPPORT_RANDOM_PROGRAM_HH
