/**
 * @file
 * Former home of the report registry, now exp/reports.hh. The
 * repository benchmark (perfbench/src/jobs.cc) still includes this
 * path and names the point builders as pbs::driver::timingPoint and
 * pbs::driver::functionalPoint; delete this header when the benchmark
 * next changes and includes exp/reports.hh instead.
 */

#ifndef PBS_DRIVER_REPORTS_HH
#define PBS_DRIVER_REPORTS_HH

#include "exp/reports.hh"

namespace pbs::driver {

using exp::functionalPoint;
using exp::timingPoint;

}  // namespace pbs::driver

#endif  // PBS_DRIVER_REPORTS_HH
