# Build-time commit stamp for the bench programs' BenchReport JSON:
#   cmake -DSOURCE_DIR=<checkout> -DOUTPUT=<header> -P git_stamp.cmake
# writes a header defining SLC_BENCH_GIT_SHA as the 12-digit HEAD commit,
# with "-dirty" appended when tracked files have uncommitted changes, or
# "unknown" outside a git checkout. It runs on every build, so a reused
# build directory reports the commit it builds, not the one it was
# configured at; the header is rewritten only when the stamp changes, so an
# unchanged tree recompiles nothing.
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
else()
  execute_process(
    COMMAND git status --porcelain --untracked-files=no
    WORKING_DIRECTORY "${SOURCE_DIR}"
    OUTPUT_VARIABLE changes
    ERROR_QUIET
    RESULT_VARIABLE result)
  if(result EQUAL 0 AND NOT changes STREQUAL "")
    string(APPEND sha "-dirty")
  endif()
endif()

set(stamp "#define SLC_BENCH_GIT_SHA \"${sha}\"\n")
set(current "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" current)
endif()
if(NOT current STREQUAL stamp)
  file(WRITE "${OUTPUT}" "${stamp}")
endif()
