# Script mode (cmake -P): writes the linker response file that routes
# every WRAP symbol of layers.cpp that the built libraries still define
# to its wrapper. A symbol that no library defines any more is left out,
# so simbench_traced still links; layers.cpp then reports it as missing.
#
# Inputs: SOURCE (layers.cpp), OUT (response file), NM, LIBS ("|"-separated).
file(STRINGS "${SOURCE}" wrap_lines REGEX "^WRAP\\(\"_Z")
string(REPLACE "|" ";" libs "${LIBS}")
set(defined "")
foreach(lib IN LISTS libs)
  execute_process(COMMAND "${NM}" --defined-only "${lib}"
                  OUTPUT_VARIABLE out ERROR_QUIET)
  string(APPEND defined "${out}")
endforeach()
set(flags "")
foreach(line IN LISTS wrap_lines)
  string(REGEX MATCH "_Z[A-Za-z0-9_]+" sym "${line}")
  if(defined MATCHES " [TtWw] ${sym}\n")
    string(APPEND flags "-Wl,--wrap=${sym} -Wl,--undefined=${sym}\n")
  endif()
endforeach()
file(WRITE "${OUT}" "${flags}")
