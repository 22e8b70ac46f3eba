# Layering check for the library sources.
#
#   cmake -DSRC=<repo>/src -P cmake/check_layering.cmake
#
# src/serve is built on top of the device, compiler and system layers,
# so it may include them but none of them may include it. Fails, naming
# each offending line, when a .cc or .hh file under SRC outside
# SRC/serve/ includes "serve/...".

if(NOT DEFINED SRC)
  message(FATAL_ERROR "check_layering.cmake needs -DSRC=...")
endif()

file(GLOB_RECURSE sources "${SRC}/*.cc" "${SRC}/*.hh")
set(offenders "")
foreach(source ${sources})
  file(RELATIVE_PATH rel "${SRC}" "${source}")
  if(rel MATCHES "^serve/")
    continue()
  endif()
  file(STRINGS "${source}" includes
       REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]serve/")
  foreach(line ${includes})
    list(APPEND offenders "src/${rel}: ${line}")
  endforeach()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " text)
  message(FATAL_ERROR "code below src/serve includes it:\n  ${text}")
endif()
