// Package tvl implements Kleene's strong three-valued logic, the evaluation
// algebra for predicates over missing data (Codd's maybe semantics, ref [7]
// of the paper). A predicate over an object with missing attribute values
// evaluates to Unknown; a conjunctive query then classifies the object as a
// certain result (True), a maybe result (Unknown), or a non-result (False).
package tvl

// Truth is a three-valued truth value.
type Truth uint8

// The three truth values. The zero value is not a valid Truth so that
// uninitialized verdicts are detectable.
const (
	False Truth = iota + 1
	Unknown
	True
)

// String returns the truth value name.
func (t Truth) String() string {
	switch t {
	case False:
		return "false"
	case Unknown:
		return "unknown"
	case True:
		return "true"
	default:
		return "invalid"
	}
}

// Of converts a Boolean to a Truth.
func Of(b bool) Truth {
	if b {
		return True
	}
	return False
}

// And returns the Kleene conjunction: False dominates, then Unknown.
func And(a, b Truth) Truth {
	if a < b {
		return a
	}
	return b
}

// Or returns the Kleene disjunction: True dominates, then Unknown.
func Or(a, b Truth) Truth {
	if a > b {
		return a
	}
	return b
}

// Not returns the Kleene negation; Unknown stays Unknown.
func Not(a Truth) Truth {
	switch a {
	case True:
		return False
	case False:
		return True
	default:
		return a
	}
}

// All folds And over the arguments; the empty conjunction is True.
func All(ts ...Truth) Truth {
	acc := True
	for _, t := range ts {
		acc = And(acc, t)
		if acc == False {
			return False
		}
	}
	return acc
}

// Any folds Or over the arguments; the empty disjunction is False.
func Any(ts ...Truth) Truth {
	acc := False
	for _, t := range ts {
		acc = Or(acc, t)
		if acc == True {
			return True
		}
	}
	return acc
}
