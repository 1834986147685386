package experiments

import (
	"sync"

	"logr/internal/core"
	"logr/internal/mining"
	"logr/internal/workload"
)

// Generated datasets are cached per Scale so a bench suite builds each log
// once.
type datasets struct {
	pocket workload.EncodeResult
	bank   workload.EncodeResult

	income   mining.CategoricalDataset
	mushroom mining.CategoricalDataset
}

var (
	cacheMu sync.Mutex
	cache   = map[Scale]*datasets{}
)

func load(s Scale) *datasets {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if d, ok := cache[s]; ok {
		return d
	}
	d := &datasets{}
	d.pocket = workload.Encode(pocketEntries(s), workload.EncodeOptions{})
	d.bank = workload.Encode(bankEntries(s), workload.EncodeOptions{})
	d.income = mining.Income(mining.IncomeConfig{Rows: s.IncomeRows, Seed: s.Seed + 2})
	d.mushroom = mining.Mushroom(mining.MushroomConfig{Rows: s.MushroomRows, Seed: s.Seed + 3})
	cache[s] = d
	return d
}

// pocketEntries and bankEntries are the raw logs a Scale encodes.
func pocketEntries(s Scale) []workload.LogEntry {
	return workload.PocketData(workload.PocketDataConfig{
		TotalQueries: s.PocketTotal, DistinctTarget: s.PocketDistinct, Seed: s.Seed,
	})
}

func bankEntries(s Scale) []workload.LogEntry {
	return workload.USBank(workload.USBankConfig{
		TotalQueries: s.BankTotal, DistinctTarget: s.BankDistinct,
		ConstantVariants: s.BankConstVariants, NoiseEntries: s.BankNoise, Seed: s.Seed + 1,
	})
}

// logsByName exposes the two query logs for sweep drivers.
func (d *datasets) logsByName() []namedLog {
	return []namedLog{
		{"PocketData", d.pocket.Log},
		{"US bank", d.bank.Log},
	}
}

type namedLog struct {
	name string
	log  *core.Log
}
