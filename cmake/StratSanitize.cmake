# Sanitizer instrumentation, selected by the STRAT_SANITIZE cache
# string and applied globally so the static library, tests, benches and
# examples all agree on the ABI:
#
#   -DSTRAT_SANITIZE=ON      AddressSanitizer + UBSan (gcc Debug CI job);
#                            -fno-sanitize-recover turns every UBSan
#                            finding into a test failure, not a log line.
#                            float-cast-overflow is named on its own:
#                            gcc's "undefined" group leaves it out, so a
#                            NaN or out-of-range double cast to an
#                            integer would otherwise run clean.
#   -DSTRAT_SANITIZE=thread  ThreadSanitizer (the intra-round
#                            parallelism CI job: swarm tests with
#                            SwarmConfig::threads > 1). Mutually
#                            exclusive with ASan by construction.
if(STRAT_SANITIZE)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    message(FATAL_ERROR "STRAT_SANITIZE requires gcc or clang")
  endif()
  string(TOLOWER "${STRAT_SANITIZE}" _strat_sanitize_lc)
  if(_strat_sanitize_lc STREQUAL "thread" OR _strat_sanitize_lc STREQUAL "tsan")
    add_compile_options(-fsanitize=thread -fno-omit-frame-pointer)
    add_link_options(-fsanitize=thread)
  elseif(_strat_sanitize_lc MATCHES "^(on|true|yes|1|address|asan)$")
    add_compile_options(-fsanitize=address,undefined,float-cast-overflow
      -fno-omit-frame-pointer -fno-sanitize-recover=all)
    add_link_options(-fsanitize=address,undefined,float-cast-overflow)
  else()
    # A typo ("Threads", "ubsan", ...) must not silently build the wrong
    # sanitizer and let its CI job certify nothing.
    message(FATAL_ERROR "STRAT_SANITIZE=${STRAT_SANITIZE} not recognized: "
      "use OFF, ON (ASan+UBSan) or thread (TSan)")
  endif()
endif()
