/**
 * @file
 * A scratch directory unique to this process, removed on destruction.
 *
 * ctest runs every test case as its own process, and `ctest -j` runs
 * them side by side, so a fixed name under the system temp directory
 * lets one process wipe another's files. mkdtemp makes a fresh
 * `<tmp>/<prefix>-XXXXXX` for each TempDir instead.
 */

#ifndef AUTH_TESTS_TEMP_DIR_HPP
#define AUTH_TESTS_TEMP_DIR_HPP

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>

namespace authenticache::test {

struct TempDir
{
    explicit TempDir(const std::string &prefix)
    {
        std::string pattern =
            (std::filesystem::temp_directory_path() / (prefix + "-XXXXXX"))
                .string();
        if (mkdtemp(pattern.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed for " + pattern);
        path = pattern;
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    /** Empty the directory, keeping its name. */
    void
    wipe()
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    std::string str() const { return path.string(); }

    std::filesystem::path path;
};

} // namespace authenticache::test

#endif // AUTH_TESTS_TEMP_DIR_HPP
