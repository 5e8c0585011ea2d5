// Package call declares the one value an invocation is while it moves
// through the platform — what to run and with what — and the one value
// that comes back. The async queue hands drained calls to the platform,
// the platform hands them to a class runtime, and none of the three
// converts them on the way: they all import these two types.
package call

import (
	"context"
	"encoding/json"
)

// Call is one method or dataflow call on an object. The object is not
// part of it: a group of calls shares one.
type Call struct {
	// Member names the function or dataflow.
	Member string
	// Payload is the request body.
	Payload json.RawMessage
	// Args are free-form invocation parameters.
	Args map[string]string
	// Ctx scopes this call's handler execution when it runs as one of a
	// group (the async queue passes each submitter's context); nil means
	// the group's context. The group's state load and commit always run
	// under the group's context, so one cancelled submitter cannot abort
	// the window the others share.
	Ctx context.Context
}

// Result is one call's outcome. Results of a group are independent: a
// failing or panicking handler poisons only its own entry, and its
// delta is left out of the group's merged commit.
type Result struct {
	Output json.RawMessage
	Err    error
}
