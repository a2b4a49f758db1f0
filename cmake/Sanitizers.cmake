# Sanitizer presets for the whole tree (src/, tests/, bench/, examples/).
#
# DASH_SANITIZE selects one preset:
#
#   ""                  off (default)
#   "address,undefined" AddressSanitizer + UndefinedBehaviorSanitizer.
#                       Memory errors (heap/stack overflow, use-after-free,
#                       leaks via LSan) plus C++ UB (signed overflow, bad
#                       shifts, misaligned loads, float-cast overflow).
#   "thread"            ThreadSanitizer. Data races and lock-order issues in
#                       the thread pool, the panel prefetcher and the TCP
#                       transport. Incompatible with ASan, hence a preset.
#   "leak"              Standalone LeakSanitizer, for when ASan's overhead
#                       is unwanted but leak coverage is.
#
# The preset applies globally (every target in every subdirectory) because
# sanitizer runtimes must be linked consistently: mixing instrumented and
# uninstrumented translation units silently loses coverage.
#
# DASH_SANITIZER_ENV is exported to the parent scope as a list of
# VAR=VALUE entries pointing each runtime at its suppression file under
# tools/sanitizers/ and enabling strict, fail-fast checking. The test
# harness (tests/CMakeLists.txt, bench smoke tests) attaches it to every
# ctest entry, so `ctest` in a sanitizer build tree just works.
#
# Suppression policy (see tools/sanitizers/README.md): suppressions are
# for third-party code only. A finding in dash code gets a real fix.

set(DASH_SANITIZER_ENV "")

if(NOT DASH_SANITIZE STREQUAL "")
  set(_dash_supp_dir ${CMAKE_SOURCE_DIR}/tools/sanitizers)
  # halt_on_error / fail-fast everywhere: a sanitizer report in CI must
  # fail the job, not scroll past in a green log.
  if(DASH_SANITIZE STREQUAL "address,undefined")
    set(_dash_san_flags -fsanitize=address,undefined)
    list(APPEND DASH_SANITIZER_ENV
      "ASAN_OPTIONS=detect_stack_use_after_return=1:strict_string_checks=1:check_initialization_order=1:detect_leaks=1:suppressions=${_dash_supp_dir}/asan.supp"
      "LSAN_OPTIONS=suppressions=${_dash_supp_dir}/lsan.supp"
      "UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1:suppressions=${_dash_supp_dir}/ubsan.supp")
  elseif(DASH_SANITIZE STREQUAL "thread")
    set(_dash_san_flags -fsanitize=thread)
    list(APPEND DASH_SANITIZER_ENV
      "TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1:suppressions=${_dash_supp_dir}/tsan.supp")
  elseif(DASH_SANITIZE STREQUAL "leak")
    set(_dash_san_flags -fsanitize=leak)
    list(APPEND DASH_SANITIZER_ENV
      "LSAN_OPTIONS=suppressions=${_dash_supp_dir}/lsan.supp")
  else()
    message(FATAL_ERROR
      "DASH_SANITIZE='${DASH_SANITIZE}' is not a preset; use "
      "'address,undefined', 'thread', 'leak', or '' (off)")
  endif()

  # -O1 keeps stacks honest without making TSan runs crawl;
  # -fno-omit-frame-pointer + -g make reports symbolize to source lines.
  # -fno-sanitize-recover turns every UBSan diagnostic into a hard stop.
  add_compile_options(${_dash_san_flags} -fno-sanitize-recover=all
                      -fno-omit-frame-pointer -g -O1)
  add_link_options(${_dash_san_flags})
  message(STATUS "dash: sanitizer preset '${DASH_SANITIZE}' enabled")
endif()
