// Per-test scratch directories.
//
// gtest_discover_tests registers every TEST as its own ctest entry, so
// `ctest -j` runs tests of one suite as concurrent processes. A fixture that
// shares one testing::TempDir() + "/<fixture>" directory and remove_all()s
// it in SetUp() deletes the files of a sibling test mid-run. TestDir gives
// each test its own directory, keyed by suite name, test name and pid, and
// removes it when the test ends.

#ifndef SEPRIVGEMB_TESTS_TEST_DIR_H_
#define SEPRIVGEMB_TESTS_TEST_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace sepriv {

class TestDir {
 public:
  /// Creates an empty directory unique to the running test. Construct it in
  /// the parent process: a forked child has another pid.
  TestDir() {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
                       info->name() + "." + std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    path_ = testing::TempDir() + "/" + name;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_);
  }

  ~TestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  const std::string& path() const { return path_; }

  /// `path()/name`; nothing is created.
  std::string operator/(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_TESTS_TEST_DIR_H_
