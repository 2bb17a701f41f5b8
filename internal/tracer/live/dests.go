package live

import (
	"fmt"
	"net/netip"
	"os"
	"strings"
)

// ReadDestsFile loads a destination list for a live campaign: one IPv4
// address per line, with blank lines and `#` comments (whole-line or
// trailing) skipped. Duplicates are rejected with an error naming both
// lines — the measurement layer's statistics are per destination and
// assume one owner per address, so a silent dedup would hide a broken
// input file.
func ReadDestsFile(path string) ([]netip.Addr, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("live: dests file: %w", err)
	}
	var dests []netip.Addr
	firstLine := make(map[netip.Addr]int)
	for i, line := range strings.Split(string(data), "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		a, err := netip.ParseAddr(line)
		if err != nil || !a.Is4() {
			return nil, fmt.Errorf("live: dests file %s:%d: %q is not an IPv4 address", path, i+1, line)
		}
		if prev, dup := firstLine[a]; dup {
			return nil, fmt.Errorf("live: dests file %s:%d: duplicate destination %v (first at line %d)", path, i+1, a, prev)
		}
		firstLine[a] = i + 1
		dests = append(dests, a)
	}
	if len(dests) == 0 {
		return nil, fmt.Errorf("live: dests file %s lists no destinations", path)
	}
	return dests, nil
}

// ParseDests is ReadDestsFile for a destination list given inline: IPv4
// addresses separated by commas, spaces around them ignored. Duplicates are
// rejected for the same reason as in a file.
func ParseDests(list string) ([]netip.Addr, error) {
	var dests []netip.Addr
	seen := make(map[netip.Addr]bool)
	for _, s := range strings.Split(list, ",") {
		a, err := netip.ParseAddr(strings.TrimSpace(s))
		if err != nil || !a.Is4() {
			return nil, fmt.Errorf("live: destination list entry %q is not an IPv4 address", s)
		}
		if seen[a] {
			return nil, fmt.Errorf("live: destination list names %v twice", a)
		}
		seen[a] = true
		dests = append(dests, a)
	}
	return dests, nil
}
