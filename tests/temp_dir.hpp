// temp_dir.hpp — a unique scratch directory per test case, so that the
// cases of one test binary can run as concurrent processes without
// sharing a path.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace sepe::testing {

/// Unique scratch directory (mkdtemp), removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "sepe-test-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) ADD_FAILURE() << "mkdtemp failed";
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

}  // namespace sepe::testing
