package main

import (
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	want, err := parseExperiments("all")
	if err != nil || len(want) != 9 || !want["0"] || !want["8"] || want["9"] {
		t.Fatalf(`parseExperiments("all") = %v, %v; want ids 0-8`, want, err)
	}
	want, err = parseExperiments("5, 13,tune")
	if err != nil || len(want) != 3 || !want["5"] || !want["13"] || !want["tune"] {
		t.Fatalf("parseExperiments(list) = %v, %v", want, err)
	}
	for _, bad := range []string{"12", "15", "", "5,x"} {
		_, err := parseExperiments(bad)
		if err == nil || !strings.Contains(err.Error(), "0, 1, 2") {
			t.Fatalf("parseExperiments(%q) = %v; want an error listing the valid ids", bad, err)
		}
	}
}
