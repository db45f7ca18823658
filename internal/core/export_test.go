package core

import (
	"xcbc/internal/modules"
	"xcbc/internal/provision"
)

// BlueprintParts hands the external tests the shared Blueprint of a
// recipe: its install plan and the frontend module tree.
func BlueprintParts(scheduler string, rolls ...string) (*provision.Plan, *modules.System, error) {
	bp, err := blueprintFor(scheduler, rolls)
	if err != nil {
		return nil, nil, err
	}
	return bp.plan, bp.modules, nil
}
