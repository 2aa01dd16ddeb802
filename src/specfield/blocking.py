"""The names the benchmark reads through ``specfield.blocking``, re-exported
from the modules that define them; the module goes once it reads them there."""

from .bernstein import MixingProfile as MixingProfile, plan as plan
from .fieldgen import replication_seeds as replication_seeds
from .periodogram import phase_grid as phase_grid
from .stats import negligibility_report as negligibility_report
