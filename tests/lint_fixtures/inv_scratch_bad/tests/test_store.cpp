// Fixture: two fixed scratch locations a parallel ctest run would
// share. A mention of temp_directory_path() or "/tmp/ in a comment
// is not a finding, and an escaped use does not hide a later one.

#include <filesystem>
#include <string>

std::filesystem::path
documentedDir()
{
    // LINT:allow(test-scratch) only compared against, never written.
    return std::filesystem::temp_directory_path();
}

std::filesystem::path
storeDir()
{
    return std::filesystem::temp_directory_path() / "store_test";
}

std::string
journalPath()
{
    return "/tmp/journal_test.bin";
}
