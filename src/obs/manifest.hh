/**
 * @file
 * Run manifests (`pbs-run-v1`): one small JSON document per run that
 * makes every artifact-writing invocation self-describing — the exact
 * argv, the code salt the result cache keys on, the scheduler shape
 * (jobs), total wall time, and an FNV-1a-128 hash of every
 * artifact the run wrote. A manifest plus its artifacts is a complete,
 * verifiable record of what produced what; scripts/check_trace_schema.py
 * re-hashes the files on disk and fails on any mismatch.
 *
 * Same contract as the rest of src/obs: recording is process-wide,
 * disabled by default, and never feeds back into simulation state or
 * artifact bytes. manifestBegin() is called unconditionally at the top
 * of every main() (it only stashes argv and a start timestamp);
 * artifact hashing happens only after manifestEnable(), i.e. when the
 * user passed `--manifest FILE`. Writers register artifacts from the
 * in-memory bytes they just wrote, so hashing never re-reads disk.
 */

#ifndef PBS_OBS_MANIFEST_HH
#define PBS_OBS_MANIFEST_HH

#include <cstdint>
#include <string>

namespace pbs::obs {

/**
 * Record the invocation (binary name, argv, start time). Cheap and
 * unconditional; call first thing in main(). argv[0] is skipped (the
 * binary name is passed explicitly so manifests do not depend on the
 * install path).
 */
void manifestBegin(const char *binary, int argc, const char *const *argv);

/** Turn artifact recording on (the `--manifest FILE` gate). */
void manifestEnable();

/** Whether manifestEnable() has been called. */
bool manifestEnabled();

/** Record the code salt (exp::versionSalt(); obs cannot reach exp). */
void manifestSetSalt(const std::string &salt);

/** Record the worker count the run executed with. */
void manifestSetJobs(unsigned jobs);

/**
 * Register one written artifact: @p path as passed to the writer,
 * @p bytes the exact content written, @p schema the format name
 * ("pbs-sweep-v1", "pbs-trace-v1", ...; "" for schema-less formats
 * like CSV). No-op unless manifestEnabled().
 */
void manifestAddArtifact(const std::string &path, const std::string &bytes,
                         const char *schema);

/** Render the `pbs-run-v1` document (wall_ms measured at this call). */
std::string manifestJson();

/**
 * Write manifestJson() to @p path. The manifest is always the last
 * artifact a run writes, so it can hash all the others; it does not
 * list itself. @return false on I/O failure.
 */
bool writeManifest(const std::string &path);

/** Artifacts registered so far (tests/diagnostics). */
size_t manifestArtifactCount();

/** Tests only: drop all manifest state and disable recording. */
void resetManifestForTest();

}  // namespace pbs::obs

#endif  // PBS_OBS_MANIFEST_HH
