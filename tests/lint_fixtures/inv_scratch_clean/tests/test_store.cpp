// Fixture: scratch comes from temp_dir.hpp. Comments may still say
// temp_directory_path() or "/tmp/ without tripping the rule, and a
// documented exception carries the escape hatch.

#include <string>

#include "temp_dir.hpp"

std::string
storeDir()
{
    return scratchPattern("store");
}

std::string
socketPath()
{
    // LINT:allow(test-scratch) the path is only parsed, never opened.
    return "/tmp/never_opened.sock";
}
