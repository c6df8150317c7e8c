#pragma once
/// \file cli.hpp
/// Tiny command-line parser for examples and bench harnesses.
/// Understands `--key=value`, `--key value`, bare `--flag`, and
/// positional arguments. Strict: a key the program does not accept and a
/// numeric value that is not wholly a number both throw util::Error, so
/// a misspelt or retired flag fails loudly instead of running defaults.

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bookleaf::util {

class Cli {
public:
    /// `keys` lists every `--key` the program accepts.
    Cli(int argc, const char* const* argv,
        std::initializer_list<std::string_view> keys);

    [[nodiscard]] bool has(const std::string& key) const;
    [[nodiscard]] std::string get(const std::string& key,
                                  const std::string& fallback) const;
    [[nodiscard]] int get_int(const std::string& key, int fallback) const;
    [[nodiscard]] double get_real(const std::string& key, double fallback) const;
    [[nodiscard]] const std::vector<std::string>& positional() const {
        return positional_;
    }

private:
    [[nodiscard]] std::optional<std::string> lookup(const std::string& key) const;

    std::unordered_map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace bookleaf::util
