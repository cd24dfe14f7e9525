package remote

import (
	"sync"

	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
)

// maxBoundQueries caps a bound-plan table. An application's queries are a
// few texts run over and over; a client that sends ever-new texts gains
// nothing from the table and, when it fills, costs the others one rebind.
const maxBoundQueries = 256

// planTable keeps the queries one process has bound, by text: a coordinator's
// callers repeat their texts, it sends the same text to every site for every
// execution, and the global schema a text binds against is fixed for the
// owner's life. A *query.Bound is never written after Bind returns it, points
// included, so concurrent queries share one. The zero value is an empty table.
type planTable struct {
	mu    sync.Mutex
	bound map[string]*query.Bound
}

// bind parses and binds a text against the global schema, once per distinct
// text: later calls get the same *query.Bound. A text that fails is not
// remembered. The table is dropped whole when it is full.
func (t *planTable) bind(text string, global *schema.Global) (*query.Bound, error) {
	t.mu.Lock()
	b := t.bound[text]
	t.mu.Unlock()
	if b != nil {
		return b, nil
	}
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	if b, err = query.Bind(q, global); err != nil {
		return nil, err
	}
	t.mu.Lock()
	if len(t.bound) >= maxBoundQueries {
		t.bound = nil
	}
	if t.bound == nil {
		t.bound = make(map[string]*query.Bound)
	}
	t.bound[text] = b
	t.mu.Unlock()
	return b, nil
}
