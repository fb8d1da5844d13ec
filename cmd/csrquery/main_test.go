package main

import (
	"path/filepath"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/tcsr"
)

func packedFixture(t *testing.T) string {
	t.Helper()
	l := edgelist.List{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}
	pk := csr.BuildPacked(l, 3, 1)
	path := filepath.Join(t.TempDir(), "g.csrc")
	if err := mgraph.WritePackedFile(path, pk); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestQuerySubcommands(t *testing.T) {
	path := packedFixture(t)
	for name, args := range map[string][]string{
		"stats":     {"-graph", path, "stats"},
		"neighbors": {"-graph", path, "neighbors", "0", "2"},
		"degree":    {"-graph", path, "degree", "1"},
		"exists":    {"-graph", path, "exists", "0:1", "2:0"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func temporalFixture(t *testing.T) string {
	t.Helper()
	events := edgelist.TemporalList{
		{U: 0, V: 1, T: 0}, {U: 0, V: 1, T: 1}, {U: 1, V: 2, T: 1},
	}
	tc, err := tcsr.BuildFromEvents(events, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.csrc")
	if err := mgraph.WriteTemporalFile(path, tc); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTemporalSubcommands(t *testing.T) {
	path := temporalFixture(t)
	for name, args := range map[string][]string{
		"stats":      {"-temporal", path, "stats"},
		"active":     {"-temporal", path, "active", "0:1:0", "0:1:1"},
		"tneighbors": {"-temporal", path, "tneighbors", "1", "1"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTemporalErrors(t *testing.T) {
	path := temporalFixture(t)
	for name, args := range map[string][]string{
		"both inputs":      {"-graph", "x", "-temporal", path, "stats"},
		"no subcommand":    {"-temporal", path},
		"bad subcommand":   {"-temporal", path, "zap"},
		"bad active query": {"-temporal", path, "active", "1:2"},
		"active range":     {"-temporal", path, "active", "0:1:99"},
		"no active args":   {"-temporal", path, "active"},
		"tneighbors usage": {"-temporal", path, "tneighbors", "1"},
		"tneighbors range": {"-temporal", path, "tneighbors", "9", "0"},
		"missing file":     {"-temporal", "/nonexistent.csrc", "stats"},
		"static container": {"-temporal", packedFixture(t), "stats"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	path := packedFixture(t)
	for name, args := range map[string][]string{
		"no graph":          {"stats"},
		"no subcommand":     {"-graph", path},
		"bad subcommand":    {"-graph", path, "explode"},
		"node out of range": {"-graph", path, "neighbors", "99"},
		"bad node":          {"-graph", path, "neighbors", "abc"},
		"no nodes":          {"-graph", path, "neighbors"},
		"bad edge":          {"-graph", path, "exists", "12"},
		"edge out of range": {"-graph", path, "exists", "9:9"},
		"bad edge u":        {"-graph", path, "exists", "x:1"},
		"bad edge v":        {"-graph", path, "exists", "1:x"},
		"missing file":      {"-graph", "/nonexistent.csrc", "stats"},
		"temporal graph":    {"-graph", temporalFixture(t), "stats"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
