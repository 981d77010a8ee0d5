# End-to-end smoke of the CLIs, invoked by the smoke_tools_pipeline
# CTest entry: simulate a small dataset, build an index image, map the
# pairs through the streaming driver, then score the SAM against truth.
# Any non-zero exit fails the test.
#
# Required -D variables: GPX_SIMULATE GPX_INDEX GPX_MAP GPX_SERVE
# GPX_MAPEVAL WORK_DIR
foreach(v GPX_SIMULATE GPX_INDEX GPX_MAP GPX_SERVE GPX_MAPEVAL WORK_DIR)
    if(NOT DEFINED ${v})
        message(FATAL_ERROR "RunToolPipeline.cmake needs -D${v}=...")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pipeline step failed (rc=${rc}): ${ARGV}")
    endif()
endfunction()

run_step(${GPX_SIMULATE} --out ${WORK_DIR}/sim
    --length 262144 --chromosomes 1 --pairs 1000)
run_step(${GPX_INDEX} --ref ${WORK_DIR}/sim.fa --out ${WORK_DIR}/sim.gpx
    --threads 1 --shards 4)

# The image is a pure function of the reference and the options: the
# build thread count must not change a single byte.
run_step(${GPX_INDEX} --ref ${WORK_DIR}/sim.fa --out ${WORK_DIR}/sim4.gpx
    --threads 4 --shards 4)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/sim.gpx ${WORK_DIR}/sim4.gpx RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpx_index --threads 1 and --threads 4 images differ")
endif()

# An image is bound to the FASTA it was built from: mapping against
# another reference must be a clean diagnostic exit, not an abort and
# not a silently wrong SAM.
run_step(${GPX_SIMULATE} --out ${WORK_DIR}/other
    --length 262144 --chromosomes 1 --pairs 10 --seed 2)
execute_process(COMMAND ${GPX_MAP} --ref ${WORK_DIR}/other.fa
    --index ${WORK_DIR}/sim.gpx
    --r1 ${WORK_DIR}/sim_1.fq --r2 ${WORK_DIR}/sim_2.fq
    --out ${WORK_DIR}/mismatch.sam
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1 OR NOT err MATCHES "different reference")
    message(FATAL_ERROR
        "gpx_map: mismatched FASTA not rejected cleanly (rc=${rc}): ${err}")
endif()
execute_process(COMMAND ${GPX_SERVE} --ref ${WORK_DIR}/other.fa
    --index ${WORK_DIR}/sim.gpx --socket ${WORK_DIR}/serve.sock
    TIMEOUT 60 RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1 OR NOT err MATCHES "different reference")
    message(FATAL_ERROR
        "gpx_serve: mismatched FASTA not rejected cleanly (rc=${rc}): ${err}")
endif()
run_step(${GPX_MAP} --ref ${WORK_DIR}/sim.fa --index ${WORK_DIR}/sim.gpx
    --r1 ${WORK_DIR}/sim_1.fq --r2 ${WORK_DIR}/sim_2.fq
    --out ${WORK_DIR}/out.sam --threads 2 --io-threads 2
    --stats-json ${WORK_DIR}/stats.json
    --trace ${WORK_DIR}/run.trace)
run_step(${GPX_MAPEVAL} --ref ${WORK_DIR}/sim.fa
    --sam ${WORK_DIR}/out.sam --truth ${WORK_DIR}/sim.truth.tsv
    --min-correct 90)

# Reads shorter than the 50 bp seed (adapter-trimmed input) must not
# abort the mapper: a 10 bp pair, an empty pair and a 150/10 bp pair
# (read 1 of the first simulated pair) each come out as two records.
file(STRINGS ${WORK_DIR}/sim_1.fq LONG_R1 LIMIT_COUNT 4)
list(GET LONG_R1 1 LONG_SEQ)
list(GET LONG_R1 3 LONG_QUAL)
file(WRITE ${WORK_DIR}/short_1.fq
    "@ten\nACGTACGTAC\n+\nIIIIIIIIII\n@empty\n\n+\n\n"
    "@long\n${LONG_SEQ}\n+\n${LONG_QUAL}\n")
file(WRITE ${WORK_DIR}/short_2.fq
    "@ten\nTTGCATGCAA\n+\nIIIIIIIIII\n@empty\n\n+\n\n"
    "@long\nACGTTGCAAC\n+\nIIIIIIIIII\n")
run_step(${GPX_MAP} --ref ${WORK_DIR}/sim.fa --index ${WORK_DIR}/sim.gpx
    --r1 ${WORK_DIR}/short_1.fq --r2 ${WORK_DIR}/short_2.fq
    --out ${WORK_DIR}/short.sam --threads 2)
file(STRINGS ${WORK_DIR}/short.sam SHORT_RECORDS REGEX "^[^@]")
list(LENGTH SHORT_RECORDS SHORT_COUNT)
if(NOT SHORT_COUNT EQUAL 6)
    message(FATAL_ERROR
        "gpx_map wrote ${SHORT_COUNT} records for 3 short-read pairs, "
        "expected 6")
endif()

# --stats-json must carry the full PipelineStats, including the
# per-stage counters of the stage graph, the fallback's DP lane fill
# and the I/O spine's stall accounting (reader-starved vs
# emission-bound seconds).
file(READ ${WORK_DIR}/stats.json STATS_JSON)
foreach(key pairs_total light_aligned stages light_align fallback
        dp_lane_groups dp_lanes_used
        reader_stall_seconds writer_stall_seconds)
    if(NOT STATS_JSON MATCHES "\"${key}\"")
        message(FATAL_ERROR "stats.json is missing key '${key}'")
    endif()
endforeach()

# --stats-json must stay valid JSON whatever the strings it echoes: the
# SIMD reason repeats a user-set GPX_SIMD verbatim.
run_step(${CMAKE_COMMAND} -E env "GPX_SIMD=bogus\"x"
    ${GPX_MAP} --ref ${WORK_DIR}/sim.fa --index ${WORK_DIR}/sim.gpx
    --r1 ${WORK_DIR}/short_1.fq --r2 ${WORK_DIR}/short_2.fq
    --out ${WORK_DIR}/bogus.sam --stats-json ${WORK_DIR}/bogus.json)
file(READ ${WORK_DIR}/bogus.json BOGUS_JSON)
string(JSON BOGUS_REASON ERROR_VARIABLE json_err
    GET "${BOGUS_JSON}" simd reason)
if(json_err)
    message(FATAL_ERROR "--stats-json is not valid JSON (${json_err})")
endif()
if(NOT BOGUS_REASON MATCHES "GPX_SIMD=bogus\"x")
    message(FATAL_ERROR "simd reason '${BOGUS_REASON}' lost GPX_SIMD")
endif()

# --trace must produce a parseable gpx-stage-trace with one record per
# mapped pair (1000 simulated pairs + the 2-line header).
file(STRINGS ${WORK_DIR}/run.trace TRACE_LINES)
list(GET TRACE_LINES 0 TRACE_MAGIC)
if(NOT TRACE_MAGIC STREQUAL "# gpx-stage-trace v1")
    message(FATAL_ERROR "trace magic line is '${TRACE_MAGIC}'")
endif()
list(LENGTH TRACE_LINES TRACE_LEN)
if(TRACE_LEN LESS 1002)
    message(FATAL_ERROR "trace holds ${TRACE_LEN} lines, expected >= 1002")
endif()
