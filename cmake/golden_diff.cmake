# Golden-output check for one bench binary.
#
#   cmake -DBIN=<binary> [-DARGS=<arg;...>] -DGOLDEN=<bench/golden/name.txt> \
#         -DOUT=<file> -P cmake/golden_diff.cmake
#
# Runs BIN with the optional argument list ARGS (none by default),
# writes its standard output to OUT, and fails unless the binary exits 0
# and OUT matches GOLDEN byte for byte. After an intended change to a
# figure, regenerate its golden file with
# `./build/<name> > bench/golden/<name>.txt` (a serving bench:
# `./build/<name> --fast > bench/golden/fast/<name>.txt`) and review the
# diff.

foreach(var BIN GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_diff.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with '${rc}'")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${OUT})
  endif()
  message(FATAL_ERROR "output of ${BIN} differs from ${GOLDEN}")
endif()
