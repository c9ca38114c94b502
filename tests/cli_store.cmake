# The CLI store path end to end: generate a related pair, precompute its
# kernel into a store, stat the store, and answer a whole-string query from
# the stored kernel; the answer must equal the LCS `compare` prints for the
# same pair. Run as a ctest (tests/CMakeLists.txt):
#   cmake -DCLI=<semilocal_cli> -DWORK=<scratch dir> -P cli_store.cmake

function(run_cli out_var)
  execute_process(COMMAND ${CLI} ${ARGN} WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "semilocal_cli ${ARGN} exited ${rc}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

run_cli(out generate --pair --length 400 --seed 5 --out pair.fasta)
run_cli(out precompute pair.fasta --store store)
run_cli(stat store stat store)
if(NOT stat MATCHES "kernels: 1 v3, 0 unreadable\n")
  message(FATAL_ERROR "store stat does not report one v3 kernel and none unreadable:\n${stat}")
endif()

# Split the pair into one file per record for `compare`, and take the ids
# and the length of b for the store query.
file(STRINGS ${WORK}/pair.fasta lines)
set(record -1)
set(ids "")
set(fasta_0 "")
set(fasta_1 "")
set(length_1 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^>([^ \t]+)")
    math(EXPR record "${record} + 1")
    list(APPEND ids ${CMAKE_MATCH_1})
  elseif(record EQUAL 1)
    string(LENGTH "${line}" length)
    math(EXPR length_1 "${length_1} + ${length}")
  endif()
  string(APPEND fasta_${record} "${line}\n")
endforeach()
list(LENGTH ids records)
if(NOT records EQUAL 2)
  message(FATAL_ERROR "generate --pair wrote ${records} records, want 2")
endif()
file(WRITE ${WORK}/a.fasta "${fasta_0}")
file(WRITE ${WORK}/b.fasta "${fasta_1}")
list(GET ids 0 id_a)
list(GET ids 1 id_b)

run_cli(compare compare a.fasta b.fasta)
if(NOT compare MATCHES "LCS = ([0-9]+)")
  message(FATAL_ERROR "compare printed no LCS:\n${compare}")
endif()
set(lcs ${CMAKE_MATCH_1})

run_cli(answer query store string-substring 0 ${length_1} --ids ${id_a},${id_b})
string(STRIP "${answer}" answer)
if(NOT answer STREQUAL lcs)
  message(FATAL_ERROR "store query answered '${answer}', compare printed LCS ${lcs}")
endif()
message(STATUS "store query = compare LCS = ${lcs} (|b| = ${length_1})")
