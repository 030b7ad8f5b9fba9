#ifndef THETIS_TESTS_TEST_TEMP_DIR_H_
#define THETIS_TESTS_TEST_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>

namespace thetis {

// A scratch directory private to this test process, created with mkdtemp
// on first use and removed (with its contents) at process exit.
//
// gtest_discover_tests runs every TEST as its own process and `ctest -j`
// runs those processes concurrently, so a fixed file name under
// testing::TempDir() is shared by all of them: one process's fixture
// set-up rewrites a snapshot that another process has mmapped, and that
// process dies with SIGBUS. Every test that writes a file names it under
// this directory instead.
inline const std::string& TestTempDir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string base = testing::TempDir();
      if (base.empty() || base.back() != '/') base += '/';
      std::string pattern = base + "thetis_test_XXXXXX";
      if (::mkdtemp(pattern.data()) == nullptr) {
        ADD_FAILURE() << "mkdtemp failed under " << base;
      }
      path = pattern;
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace thetis

#endif  // THETIS_TESTS_TEST_TEMP_DIR_H_
