package storage

import (
	"errors"
	"fmt"

	"orchestra/internal/schema"
)

// ErrUnknownRelation is the sentinel wrapped by every storage error caused
// by addressing a relation the instance's schema does not declare. Callers
// test with errors.Is; the public orchestra facade translates it to
// orchestra.ErrUnknownRelation.
var ErrUnknownRelation = errors.New("storage: unknown relation")

// ErrKeyViolation is returned by Insert when a different tuple with the
// same primary key already exists.
type ErrKeyViolation struct {
	Relation string
	Key      schema.Tuple
	Existing schema.Tuple
	New      schema.Tuple
}

// Error implements error.
func (e *ErrKeyViolation) Error() string {
	return fmt.Sprintf("storage: key violation in %s: key %v held by %v, attempted %v",
		e.Relation, e.Key, e.Existing, e.New)
}
