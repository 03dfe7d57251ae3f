package graphio

import (
	"strings"
	"testing"
)

func TestReadRequestsBounds(t *testing.T) {
	for name, input := range map[string]string{
		"from over int32":     "0 2147483648 1 1\n",
		"to over int32":       "0 1 99999999999 0\n",
		"negative from":       "0 -1 2 1\n",
		"negative to":         "0 1 -2 0\n",
		"interval over int32": "99999999999 1 2 1\n",
	} {
		if _, err := ReadRequests(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
	// The int32 boundary itself is valid.
	reqs, err := ReadRequests(strings.NewReader("0 2147483647 0 1\n"))
	if err != nil {
		t.Fatalf("max int32 node ID rejected: %v", err)
	}
	if reqs[0].From != 2147483647 {
		t.Fatalf("From = %d, want 2147483647", reqs[0].From)
	}
}
