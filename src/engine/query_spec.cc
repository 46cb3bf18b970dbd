#include "engine/query_spec.h"

#include <cctype>
#include <cstdio>

namespace uolap::engine {

std::string QueryIdName(QueryId id) {
  switch (id) {
    case QueryId::kProjection:
      return "projection";
    case QueryId::kSelection:
      return "selection";
    case QueryId::kJoin:
      return "join";
    case QueryId::kGroupBy:
      return "groupby";
    case QueryId::kQ1:
      return "q1";
    case QueryId::kQ6:
      return "q6";
    case QueryId::kQ9:
      return "q9";
    case QueryId::kQ18:
      return "q18";
  }
  return "?";
}

std::string_view QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk:
      return "ok";
    case QueryOutcome::kRejected:
      return "rejected";
    case QueryOutcome::kShed:
      return "shed";
    case QueryOutcome::kTimedOut:
      return "timed_out";
    case QueryOutcome::kFailed:
      return "failed";
  }
  return "?";
}

QuerySpec QuerySpec::Projection(int degree) {
  QuerySpec s;
  s.id = QueryId::kProjection;
  s.projection_degree = degree;
  return s;
}

QuerySpec QuerySpec::Selection(const SelectionParams& params) {
  QuerySpec s;
  s.id = QueryId::kSelection;
  s.selection = params;
  return s;
}

QuerySpec QuerySpec::Join(JoinSize size) {
  QuerySpec s;
  s.id = QueryId::kJoin;
  s.join_size = size;
  return s;
}

QuerySpec QuerySpec::GroupBy(int64_t num_groups) {
  QuerySpec s;
  s.id = QueryId::kGroupBy;
  s.num_groups = num_groups;
  return s;
}

QuerySpec QuerySpec::Q1() {
  QuerySpec s;
  s.id = QueryId::kQ1;
  return s;
}

QuerySpec QuerySpec::Q6(const Q6Params& params) {
  QuerySpec s;
  s.id = QueryId::kQ6;
  s.q6 = params;
  return s;
}

QuerySpec QuerySpec::Q9() {
  QuerySpec s;
  s.id = QueryId::kQ9;
  return s;
}

QuerySpec QuerySpec::Q18() {
  QuerySpec s;
  s.id = QueryId::kQ18;
  return s;
}

Status QuerySpec::Validate() const {
  if (id < QueryId::kProjection || id > QueryId::kQ18) {
    return Status::InvalidArgument("unknown QueryId");
  }
  if (id == QueryId::kProjection &&
      (projection_degree < 1 || projection_degree > 4)) {
    return Status::InvalidArgument("projection_degree must be in 1..4");
  }
  if (id == QueryId::kSelection &&
      !(selection.selectivity >= 0.0 && selection.selectivity <= 1.0)) {
    return Status::InvalidArgument("selection.selectivity must be in [0,1]");
  }
  if (id == QueryId::kGroupBy && num_groups < 1) {
    return Status::InvalidArgument("num_groups must be >= 1");
  }
  return Status::OK();
}

std::string QuerySpec::Label() const {
  char buf[64];
  switch (id) {
    case QueryId::kProjection:
      std::snprintf(buf, sizeof(buf), "projection/d%d", projection_degree);
      return buf;
    case QueryId::kSelection:
      std::snprintf(buf, sizeof(buf), "selection/s%.2f%s",
                    selection.selectivity,
                    selection.predicated ? "/pred" : "");
      return buf;
    case QueryId::kJoin: {
      std::string name = JoinSizeName(join_size);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      return "join/" + name;
    }
    case QueryId::kGroupBy:
      std::snprintf(buf, sizeof(buf), "groupby/g%lld",
                    static_cast<long long>(num_groups));
      return buf;
    case QueryId::kQ1:
      return "q1";
    case QueryId::kQ6:
      return q6.predicated ? "q6/pred" : "q6";
    case QueryId::kQ9:
      return "q9";
    case QueryId::kQ18:
      return "q18";
  }
  return "?";
}

}  // namespace uolap::engine
