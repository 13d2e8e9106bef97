// Scratch directories for tests that write files.
//
// gtest_discover_tests runs every test case as its own process, and
// `ctest -j` runs those processes side by side.  A fixed path under
// TempDir() is therefore shared: one process's cleanup can delete files
// another is still reading.  The process id makes each path private.
#ifndef HOSTSIM_TESTS_TEMP_DIR_H
#define HOSTSIM_TESTS_TEMP_DIR_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

/// TempDir()/<name>-<pid>, owned by this test process alone.
inline std::filesystem::path test_temp_dir(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) /
         (name + "-" + std::to_string(::getpid()));
}

#endif  // HOSTSIM_TESTS_TEMP_DIR_H
