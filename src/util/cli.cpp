#include "util/cli.hpp"

#include <algorithm>
#include <charconv>

#include "util/error.hpp"

namespace bookleaf::util {

namespace {

/// The whole of `value` as a T, or util::Error naming the key.
template <typename T>
T parse_number(const std::string& key, const std::string& value,
               const char* kind) {
    T out{};
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (value.empty() || ec != std::errc{} || ptr != end)
        throw Error("--" + key + " expects " + kind + ", got '" + value + "'");
    return out;
}

} // namespace

Cli::Cli(int argc, const char* const* argv,
         std::initializer_list<std::string_view> keys) {
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg.rfind("--", 0) == 0) {
            const auto body = arg.substr(2);
            const auto eq = body.find('=');
            const auto key = body.substr(0, eq);
            if (std::find(keys.begin(), keys.end(), key) == keys.end())
                throw Error("unknown option --" + std::string(key));
            if (eq != std::string_view::npos) {
                options_.emplace(std::string(key),
                                 std::string(body.substr(eq + 1)));
            } else if (i + 1 < argc &&
                       std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
                options_.emplace(std::string(key), std::string(argv[i + 1]));
                ++i;
            } else {
                options_.emplace(std::string(key), "");
            }
        } else {
            positional_.emplace_back(arg);
        }
    }
}

std::optional<std::string> Cli::lookup(const std::string& key) const {
    if (const auto it = options_.find(key); it != options_.end()) return it->second;
    return std::nullopt;
}

bool Cli::has(const std::string& key) const { return options_.contains(key); }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
    return lookup(key).value_or(fallback);
}

int Cli::get_int(const std::string& key, int fallback) const {
    if (const auto v = lookup(key))
        return parse_number<int>(key, *v, "an integer");
    return fallback;
}

double Cli::get_real(const std::string& key, double fallback) const {
    if (const auto v = lookup(key))
        return parse_number<double>(key, *v, "a number");
    return fallback;
}

} // namespace bookleaf::util
