# Malformed numbers on the shared bench command line must exit 2 with
# a message naming the flag, never read as 0 or crash inside the run.
# Usage: cmake -DBENCH=<bench binary> -P rejects_malformed.cmake
# Each case: the arguments, then a regex the stderr must match.
set(cases
  "--seed|x|--seed expects"
  "--scale|-1|--scale expects"
  "--scale|nan|--scale expects"
  "--kill|3@x|--kill expects N@T"
  "--kill|3|--kill expects N@T"
  "--restart|@5|--restart expects N@T"
  "--tick-limit|abc|--tick-limit expects"
  "--procs|abc|--procs expects"
  "--jobs|abc|--jobs expects"
  "--iters|2x|--iters expects"
  "--backup-node|70000|--backup-node expects"
  "--lossy-link|0,0,x,7|--lossy-link expects L,FROM,TO,NTH"
  "--lossy-link|0,0,7|--lossy-link expects L,FROM,TO,NTH"
  "--trace|t.json,1,x|--trace expects FILE\\[,FROM,TO\\]"
  "abc|\\[scale\\] expects")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(POP_BACK parts expect)
  execute_process(COMMAND ${BENCH} ${parts}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${parts}': exit status '${rc}', expected 2")
  endif()
  if(NOT err MATCHES "${expect}")
    message(FATAL_ERROR "'${parts}': stderr '${err}' lacks '${expect}'")
  endif()
endforeach()
