package serve

import "repro/internal/wire"

// The request/response vocabulary moved to internal/wire when the query
// plane was split into tiers — clients and the cluster router speak it
// without importing the execution stack.  These aliases keep the serve API
// (and every existing caller) source-compatible.
type (
	// BatchRequest is the JSON body of POST /v1/batch.
	BatchRequest = wire.BatchRequest
	// RawQuery is one fully specified dependence question (raw mode).
	RawQuery = wire.RawQuery
	// QueryResult is one expanded dependence query's verdict.
	QueryResult = wire.QueryResult
	// BatchStats reports the request's cost and warm-cache state.
	BatchStats = wire.BatchStats
	// BatchResponse is the JSON body answering POST /v1/batch.
	BatchResponse = wire.BatchResponse

	errorResponse = wire.ErrorResponse
)
