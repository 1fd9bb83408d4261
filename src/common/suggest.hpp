#pragma once

/// Did-you-mean suggestions for small fixed vocabularies.
///
/// Every user-facing key=value surface in the tree wants the same
/// diagnostic: an unknown key or enum value is reported together with
/// the closest known candidate, so `sover = auto` becomes actionable
/// instead of a silent default.  The helper started life inside the
/// run-layer config parser; the serve request parser and linger_cli
/// share this one implementation now.
///
/// The vocabularies are tiny (a handful of enum values, ~40 table
/// keys), so the O(len^2) two-row Levenshtein form is plenty.

#include <cstddef>
#include <string>
#include <vector>

namespace plinger::common {

/// Levenshtein edit distance between two strings.
std::size_t edit_distance(const std::string& a, const std::string& b);

/// The candidate closest to `value` within an edit distance of 2 (and
/// closer than the whole candidate is long, so short words cannot be
/// "suggested" from unrelated input), or "" when nothing is worth
/// suggesting.  Earlier candidates win ties.
std::string closest_within_two(const std::string& value,
                               const std::vector<std::string>& candidates);

}  // namespace plinger::common
