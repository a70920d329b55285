// Copyright (c) 2026 The db2graph-repro Authors.
//
// Gremlin script parser. Supports the traversal subset used throughout the
// paper: V/E starts, adjacency steps, has-filters with P predicates,
// values/valueMap projections, aggregates, dedup/limit/range/order,
// repeat().times().emit(), where()/filter()/not() sub-traversals,
// store()/aggregate() + cap() side effects, variable assignment between
// statements, and .next()/.toList()/.iterate() terminals.

#ifndef DB2GRAPH_GREMLIN_PARSER_H_
#define DB2GRAPH_GREMLIN_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "gremlin/step.h"

namespace db2graph::gremlin {

/// Registry counter name bumped by every ParseGremlin() call. The plan
/// cache's compile-once contract is asserted against it: executing a
/// cached plan performs zero parses.
inline constexpr const char kParseCallsCounter[] = "gremlin.parse_calls";

/// Parses a full script (';'-separated statements). Each id argument of
/// V()/E()/hasId() whose literal token starts at one of `slot_offsets`
/// (ascending text offsets) is tagged with that offset's index as its
/// GremlinArg::slot.
Result<Script> ParseGremlin(const std::string& text,
                            const std::vector<size_t>& slot_offsets = {});

/// The statement concentrator's view of a script: its text with every id
/// literal replaced by a numbered slot name, plus the literals removed.
struct ConcentratedScript {
  /// The text with id literal i replaced by "__c<i>" (the plan-cache key
  /// of every script that differs from this one only in those literals).
  std::string shape;
  std::vector<Value> values;    // literal i's value
  std::vector<size_t> offsets;  // literal i's token offset in the text
};

/// One lexer-only pass over `text`, building no token vector: every int or
/// string literal that is a whole argument of V(), E() or hasId() — the
/// id positions — becomes a slot (negative numbers and the L suffix
/// included). Labels, limit/range/times bounds and has() values stay in
/// the shape. Returns false, leaving the text to be keyed as written, on a
/// double, an escape sequence, a comment, text already containing the
/// reserved slot prefix, or anything the lexer would reject (the parser
/// then reports it exactly as before).
bool ConcentrateIdLiterals(const std::string& text, ConcentratedScript* out);

/// Parses a single traversal ("g.V()..." without assignment).
Result<Traversal> ParseTraversal(const std::string& text);

}  // namespace db2graph::gremlin

#endif  // DB2GRAPH_GREMLIN_PARSER_H_
