/**
 * @file
 * Compatibility forwarder: the canonical JSON writer/parser moved to
 * `src/util/json.hh` so layers below the experiment engine (notably
 * the observability layer) can use it without a layering inversion.
 * Existing exp code keeps its spellings.
 */

#ifndef PBS_EXP_JSON_HH
#define PBS_EXP_JSON_HH

#include "util/json.hh"

namespace pbs::exp {

using util::JsonValue;
using util::JsonWriter;
using util::canonicalDouble;
using util::jsonEscape;
using util::parseJson;
using util::rewriteJson;

}  // namespace pbs::exp

#endif  // PBS_EXP_JSON_HH
