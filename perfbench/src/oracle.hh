/**
 * @file
 * The output oracle: the expected deterministic result of every point
 * of every job, per input set, stored under perfbench/oracle/ and
 * regenerated only by `pbs_perfbench --regen-oracle`. A timed run
 * compares what it simulated against these records; it never computes
 * them.
 *
 * One JSON object per line:
 *   {"job":..., "point":..., "stats":[8 counters], "outputs":hash,
 *    "estimate":{...}, "reference":[8 counters]}
 * "estimate" is present for sampled points, and "reference" holds the
 * same point's full detailed run (the accuracy baseline).
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <map>
#include <string>

#include "exp/point.hh"

namespace perfbench {

/** Expected result of one point. */
struct Record
{
    pbs::cpu::CoreStats stats;
    std::string outputs;  ///< content hash of the program outputs

    bool hasEstimate = false;
    pbs::sampling::SampleEstimate estimate;

    bool hasReference = false;
    pbs::cpu::CoreStats reference;
};

/** The record a measurement produces (no reference). */
Record recordOf(const pbs::exp::Measurement &m);

/**
 * Compare a simulated record against the expected one: stats, outputs
 * and the sampled estimate must match exactly (doubles bit for bit).
 * @return "" on a match, else a description of the first difference.
 */
std::string diffRecord(const Record &want, const Record &got);

/** Records keyed by "<job> <point key>". */
using Oracle = std::map<std::string, Record>;

std::string oracleKey(const std::string &job, const std::string &point);

/** Path of input set @p pool's oracle file under @p dir. */
std::string oraclePath(const std::string &dir, unsigned pool, bool quick);

/** Load an oracle file. @return false (with @p err) when unreadable. */
bool loadOracle(const std::string &path, Oracle &out, std::string &err);

/** Write an oracle file (sorted by key). @return false on I/O failure. */
bool saveOracle(const std::string &path, const Oracle &oracle);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_HH
