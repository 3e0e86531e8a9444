#ifndef TPGNN_TESTS_TESTING_TEMP_PATH_H_
#define TPGNN_TESTS_TESTING_TEMP_PATH_H_

#include <unistd.h>

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

namespace tpgnn {

// A temp-file path no other test process can collide with: TempDir() plus
// the pid, the full name of the running test (suite, instantiation and
// parameter included), and `tag`. ctest runs every case as its own
// process, often in parallel, so a fixed name is a race.
inline std::string UniqueTempPath(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? "no_test"
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  return ::testing::TempDir() + "tpgnn_" + std::to_string(getpid()) + "_" +
         test + "_" + tag;
}

}  // namespace tpgnn

#endif  // TPGNN_TESTS_TESTING_TEMP_PATH_H_
