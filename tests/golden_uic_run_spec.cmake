# Golden end-to-end regression over the paper-figure sweep specs: every
# bench/specs/*.json runs through `uic_run --spec` at a tiny scale, and its
# report must match tests/golden/specs/<name>.txt byte-for-byte
# (--no-timing drops the only nondeterministic column).
#
# All specs run at --scale 0.01 except fig8d: its large-skew point gives
# one item a budget of 410, more than the 400 nodes of the Twitter stand-in
# at 0.01, so it runs at 0.02.
#
# Usage:
#   cmake -DUIC_RUN=<binary> -DSPEC_DIR=<dir> -DGOLDEN_DIR=<dir>
#         -P golden_uic_run_spec.cmake

if(NOT UIC_RUN OR NOT SPEC_DIR OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "golden_uic_run_spec.cmake needs -DUIC_RUN, -DSPEC_DIR and -DGOLDEN_DIR")
endif()

file(GLOB specs ${SPEC_DIR}/*.json)
if(NOT specs)
  message(FATAL_ERROR "no specs under ${SPEC_DIR}")
endif()
foreach(spec ${specs})
  get_filename_component(name ${spec} NAME_WE)
  set(scale 0.01)
  if(name STREQUAL "fig8d")
    set(scale 0.02)
  endif()
  execute_process(
    COMMAND ${UIC_RUN} --spec ${spec} --scale ${scale} --mc 20 --workers 2
            --no-timing
    OUTPUT_VARIABLE got
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: uic_run exited with ${rc}\nstderr:\n${err}")
  endif()
  if(NOT EXISTS ${GOLDEN_DIR}/${name}.txt)
    message(FATAL_ERROR "${name}: no golden ${GOLDEN_DIR}/${name}.txt")
  endif()
  file(READ ${GOLDEN_DIR}/${name}.txt want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${name}: report differs from specs/${name}.txt\n"
                        "--- got ---\n${got}\n--- want ---\n${want}")
  endif()
  message(STATUS "${name}: exact match against specs/${name}.txt")
endforeach()
