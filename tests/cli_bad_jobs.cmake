# Runs `sttsim --list --jobs=VALUE` for each malformed, negative or
# too-large VALUE and fails unless every run exits 2 with the usage message.
# --list returns before the CLI builds its worker pool.
#   cmake -DCLI=path/to/sttsim -P cli_bad_jobs.cmake
foreach(value -1 abc 4294967295 1025)
  execute_process(COMMAND ${CLI} --list --jobs=${value}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: " OR NOT out STREQUAL "")
    message(FATAL_ERROR "--jobs=${value}: exit ${rc}\nstdout: ${out}\nstderr: ${err}")
  endif()
endforeach()
