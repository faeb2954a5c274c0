// Fixture: the sanctioned wrapper may use the system temp directory.

#include <filesystem>
#include <string>

inline std::string
scratchPattern(const std::string &prefix)
{
    return (std::filesystem::temp_directory_path() / (prefix + "-XXXXXX"))
        .string();
}
