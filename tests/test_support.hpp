// Helpers shared by the test files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <string_view>

namespace fsml {

/// A scratch-file path under ::testing::TempDir() that no other test or
/// process uses: `<TempDir>fsml_<suite>.<test>_<pid>_<suffix>`.
/// gtest_discover_tests runs every test in its own process, so under
/// `ctest -j` two tests writing one fixed name would clobber each other.
inline std::string unique_temp_path(std::string_view suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "fsml_";
  if (info != nullptr)
    name += std::string(info->test_suite_name()) + "." + info->name() + "_";
  name += std::to_string(::getpid()) + "_";
  name += suffix;
  // Parameterized suites carry '/' in their names.
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name;
}

}  // namespace fsml
