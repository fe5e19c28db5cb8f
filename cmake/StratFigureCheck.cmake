# Figure pin checker, run as a ctest entry in script mode:
#
#   cmake -DDRIVER=<exe> "-DARGS=<flags>" "-DTHREADS=1 4" -DDIGEST=<sha256>
#         -P cmake/StratFigureCheck.cmake
#
# Runs DRIVER with ARGS and --csv, hashes its stdout with SHA-256 and
# compares the hash with DIGEST. With THREADS set, the driver runs once
# per listed --threads value and every run must print the pinned bytes.
# On a mismatch the message names the command, the digest it printed and
# its CSV, so re-pinning a figure is copying that digest into
# bench/figures.cmake (and saying why in CHANGES.md).

separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(threads UNIX_COMMAND "${THREADS}")
if(NOT threads)
  set(threads "default")
endif()

foreach(t IN LISTS threads)
  set(cmd "${DRIVER}" ${args} --csv)
  if(NOT t STREQUAL "default")
    list(APPEND cmd --threads ${t})
  endif()
  list(JOIN cmd " " shown)
  execute_process(COMMAND ${cmd}
    OUTPUT_VARIABLE csv
    ERROR_VARIABLE commentary
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${shown}: exit ${rc}\n${commentary}")
  endif()
  string(SHA256 got "${csv}")
  if(NOT got STREQUAL DIGEST)
    message(FATAL_ERROR
      "figure moved: ${shown}\n  pinned ${DIGEST}\n  got    ${got}\n${csv}")
  endif()
endforeach()
